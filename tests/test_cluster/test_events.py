"""Heap-based event queue semantics."""

from __future__ import annotations

import pytest

from .event_queue import EventQueue


def test_runs_in_time_order():
    q = EventQueue()
    fired = []
    q.schedule(3.0, lambda: fired.append("c"))
    q.schedule(1.0, lambda: fired.append("a"))
    q.schedule(2.0, lambda: fired.append("b"))
    q.run()
    assert fired == ["a", "b", "c"]
    assert q.now == 3.0
    assert q.processed == 3


def test_ties_fire_in_schedule_order():
    q = EventQueue()
    fired = []
    for tag in range(5):
        q.schedule(1.0, lambda t=tag: fired.append(t))
    q.run()
    assert fired == [0, 1, 2, 3, 4]


def test_schedule_after_and_nested():
    q = EventQueue()
    fired = []

    def first():
        fired.append(q.now)
        q.schedule_after(2.0, lambda: fired.append(q.now))

    q.schedule(1.0, first)
    q.run()
    assert fired == [1.0, 3.0]


def test_run_until_stops_clock():
    q = EventQueue()
    fired = []
    q.schedule(1.0, lambda: fired.append(1))
    q.schedule(5.0, lambda: fired.append(5))
    q.run(until=3.0)
    assert fired == [1]
    assert q.now == 3.0
    assert len(q) == 1


def test_max_events_guard():
    q = EventQueue()

    def loop():
        q.schedule_after(1.0, loop)

    q.schedule(0.0, loop)
    q.run(max_events=10)
    assert q.processed == 10


def test_cannot_schedule_in_past():
    q = EventQueue()
    q.schedule(5.0, lambda: None)
    q.step()
    with pytest.raises(ValueError):
        q.schedule(1.0, lambda: None)
    with pytest.raises(ValueError):
        q.schedule_after(-1.0, lambda: None)


def test_step_empty_returns_false():
    assert EventQueue().step() is False
