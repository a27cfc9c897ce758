"""The observer channel contract, checked once for every channel, and
the observer protocol the simulator starts and finishes runs through."""

from __future__ import annotations

from contextlib import ExitStack

import pytest

from repro.cluster import SimulationConfig, simulate_reads
from repro.common import ClusterSpec, Gbps
from repro.obs import CHANNELS, PopularityConfig, use_popularity
from repro.obs.sections import FINISH_ORDER
from repro.policies import SPCachePolicy
from repro.workloads import paper_fileset, poisson_trace


def _section(ch):
    """A minimal valid section: the marker with a value of its type."""
    return {ch.marker: "x" if ch.marker_type is str else []}


@pytest.mark.parametrize("ch", CHANNELS, ids=lambda ch: ch.key)
def test_channel_contract(ch):
    # use: only the channel's own config type, stacked and restored.
    expected = ch.config.__name__ if ch.config else ch.name
    with pytest.raises(TypeError, match=expected):
        with ch.use({"not": "a config"}):
            pass
    assert ch.current() is None
    if ch.config is not None:
        outer, inner = ch.config(), ch.config()
        with ch.use(outer) as got:
            assert got is outer and ch.current() is outer
            with ch.use(inner):
                assert ch.current() is inner
                assert ch.resolve(None) is inner
                assert ch.resolve(outer) is outer
            assert ch.current() is outer
        assert ch.current() is None

    # publish with no sink is a no-op; nested sinks both receive.
    ch.publish(_section(ch))
    first, second = _section(ch), _section(ch)
    with ch.collect() as outer:
        with ch.collect() as inner:
            ch.publish(first)
        ch.publish(second)
    assert len(inner) == 1 and inner[0] is first
    assert len(outer) == 2 and outer[0] is first and outer[1] is second

    # Two equal empty sinks: leaving the inner block detaches the inner
    # one (by identity), not the outer one that compares equal to it.
    a: list = []
    b: list = []
    with ch.collect(a):
        with ch.collect(b):
            pass
        ch.publish(first)
    assert a == [first] and b == []

    # A section without the marker, or with one of the wrong type, is
    # refused; so is a section list that is not a list.
    with pytest.raises(ValueError, match=ch.marker):
        ch.publish({"no": "marker"})
    with pytest.raises(ValueError, match=ch.marker):
        ch.publish({ch.marker: 3.5})
    with pytest.raises(ValueError, match="list"):
        ch.check_list({"not": "a list"}, ch.key)


# -- the observer protocol ------------------------------------------------


def _run(observers=()):
    cluster = ClusterSpec(n_servers=6, bandwidth=Gbps)
    pop = paper_fileset(20, size_mb=20, zipf_exponent=1.1, total_rate=5)
    policy = SPCachePolicy(pop, cluster, seed=5)
    trace = poisson_trace(pop, n_requests=120, seed=11)
    config = SimulationConfig(
        discipline="fifo", jitter="deterministic", observers=observers
    )
    return simulate_reads(trace, policy, cluster, config)


def test_finish_order_and_manifest_order():
    assert [ch.name for ch in FINISH_ORDER] == [
        "timeline", "causal", "popularity", "slo",
    ]
    assert [ch.key for ch in CHANNELS] == [
        "timelines", "popularity", "slo", "causal", "membership",
    ]
    assert all(ch.observer is not None for ch in FINISH_ORDER)


def test_observers_reject_a_non_config():
    with pytest.raises(TypeError, match="got dict"):
        SimulationConfig(observers=({"window_s": 1.0},))
    with pytest.raises(TypeError, match="got PopularityConfig"):
        SimulationConfig(observers=PopularityConfig())


def test_observers_reject_two_configs_for_one_channel():
    with pytest.raises(ValueError, match="two PopularityConfigs"):
        SimulationConfig(
            observers=(PopularityConfig(), PopularityConfig(top_k=3))
        )


_ENABLED = [(), *[(ch.name,) for ch in FINISH_ORDER], ("slo", "timeline"),
            tuple(ch.name for ch in FINISH_ORDER)]


@pytest.mark.parametrize("ambient", [False, True], ids=["explicit", "ambient"])
@pytest.mark.parametrize("enabled", _ENABLED, ids=lambda e: "+".join(e) or "none")
def test_sections_hold_exactly_the_enabled_channels(enabled, ambient):
    chosen = [ch for ch in FINISH_ORDER if ch.name in enabled]
    with ExitStack() as stack:
        if ambient:
            for ch in chosen:
                stack.enter_context(ch.use(ch.config()))
            result = _run()
        else:
            result = _run(tuple(ch.config() for ch in chosen))
    assert list(result.sections) == [ch.name for ch in chosen]
    for ch in chosen:
        ch.check(result.sections[ch.name], ch.name)


def test_explicit_config_wins_over_ambient():
    with use_popularity(PopularityConfig(top_k=3)):
        result = _run((PopularityConfig(top_k=5),))
        ambient = _run()
    assert len(result.sections["popularity"]["top"]) == 5
    assert len(ambient.sections["popularity"]["top"]) == 3
