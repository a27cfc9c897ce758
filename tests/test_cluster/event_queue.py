"""A small, exact discrete-event core for independent test references.

The simulator's disciplines (:mod:`repro.cluster.engine`) never use it:
``test_simulation_exactness.py`` checks the fifo engine against an
M/M/1 queue scheduled on this queue, and ``test_events.py`` pins its
ordering rules.

Events are ``(time, seq, callback)`` triples on a binary heap; ``seq`` is a
monotone tiebreaker so simultaneous events fire in schedule order and the
heap never compares callbacks.
"""

from __future__ import annotations

import heapq
from typing import Callable

__all__ = ["EventQueue"]


class EventQueue:
    """Classic calendar queue driving callbacks in timestamp order."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self.now = 0.0
        self._processed = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} before now={self.now}")
        heapq.heappush(self._heap, (time, self._seq, callback))
        self._seq += 1

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.schedule(self.now + delay, callback)

    def step(self) -> bool:
        """Run the earliest event; return False if the queue is empty."""
        if not self._heap:
            return False
        time, _, callback = heapq.heappop(self._heap)
        self.now = time
        self._processed += 1
        callback()
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the queue, optionally stopping at ``until`` or after
        ``max_events`` (a runaway-loop guard for tests)."""
        count = 0
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                self.now = until
                return
            if max_events is not None and count >= max_events:
                return
            self.step()
            count += 1
