"""The batched engines against their per-request reference oracles.

``heap_oracle._run_heap`` is the per-flow heap loop the array-backed
``ps``/``limited(c)`` engine replaced, and ``fifo_oracle.run_fifo`` the
per-request loop the batched fifo engine replaced; both plan one request
at a time with ``plan_read``.  Production and oracle run on the same
:class:`RequestLifecycle` inputs, and production must reproduce the
oracle bit for bit: latencies and per-server bytes compared through
``float.hex``, hits/misses, and the timeline, causal, popularity and SLO
sections when the observers are on.

Hypothesis drives the corners where the designs could diverge: capacity
``None``/1/2/3, batch sizes 1, 4 and the default, both jitter models,
goodput and stragglers on and off, several partitions of one request on
one server, simultaneous arrivals, arrivals landing on a completion, and
exact completion-time ties (equal partition sizes on equal-speed
servers, and client-capped equal-size fan-outs of up to 6 flows).

The production engine retires a request's flows that tie at one instant
in a single step, guarded so that it stays exact; hand-built cases pin
each guard at the float level, where random draws rarely land.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import SimulationConfig, StragglerInjector
from repro.cluster.client import ReadBatch, ReadOp
from repro.cluster.engine import FifoDiscipline, RequestLifecycle
from repro.cluster.engine.shared_heap import _run_heap
from repro.cluster.network import GoodputModel
from repro.common import ClusterSpec
from repro.obs import TimelineConfig
from repro.obs.causal import CausalConfig
from repro.obs.popularity import PopularityConfig
from repro.obs.slo import default_slo_config
from repro.policies import (
    ECCachePolicy,
    SelectiveReplicationPolicy,
    SPCachePolicy,
)
from repro.workloads import paper_fileset, poisson_trace
from repro.workloads.arrivals import ArrivalTrace
from repro.workloads.bing import BingStragglerProfile

from .fifo_oracle import run_fifo
from .heap_oracle import _run_heap as _oracle_run_heap


@dataclass
class _ScriptedPlanner:
    """Fixed per-file fork-joins (duplicate servers and ties allowed)."""

    plans: list[ReadOp]
    name: str = "scripted"

    def plan_read(self, file_id, u=None):
        return self.plans[file_id]

    def plan_reads(self, file_ids, u=None):
        return ReadBatch.from_ops([self.plans[f] for f in file_ids])

    def footprint(self, file_id):
        return float(np.sum(self.plans[file_id].sizes))


def _engine_name(capacity):
    return "ps" if capacity is None else f"limited({capacity})"


def _run_both(trace, planner, cluster, config, capacity):
    name = _engine_name(capacity)
    new = _run_heap(
        RequestLifecycle(trace, planner, cluster, config, name), capacity
    )
    old = _oracle_run_heap(
        RequestLifecycle(trace, planner, cluster, config, name), capacity
    )
    return new, old


def _hex(values):
    return [float(x).hex() for x in values]


def _section(section):
    return json.dumps(section, sort_keys=True)


def _assert_same(new, old):
    assert _hex(new.latencies) == _hex(old.latencies)
    assert _hex(new.server_bytes) == _hex(old.server_bytes)
    assert (new.hits, new.misses) == (old.hits, old.misses)
    assert new.metrics == old.metrics
    assert list(new.sections) == list(old.sections)
    for name in new.sections:
        assert _section(new.sections[name]) == _section(old.sections[name])


def _exact(**kwargs):
    """No jitter, goodput loss or stragglers: flow sizes are the bytes."""
    kwargs.setdefault("stragglers", StragglerInjector.none())
    return SimulationConfig(jitter="deterministic", goodput=None, **kwargs)


_RECORDED = (TimelineConfig(), CausalConfig())


# Few distinct values, so equal sizes on equal-speed servers tie exactly.
_SIZES = st.sampled_from([1e6, 2e6, 5e6])


@st.composite
def _fan_out(draw, n_servers):
    """One size on up to 6 distinct servers: under a binding client cap
    every flow gets the same rate, so the whole fan-out ties.  (Up to
    30 MB, so some files exceed the 25 MB cache budget.)"""
    k = draw(st.integers(2, min(6, n_servers)))
    servers = draw(st.permutations(range(n_servers)))[:k]
    return ReadOp(
        server_ids=np.array(servers, dtype=np.int64),
        sizes=np.full(k, draw(_SIZES)),
        join_count=draw(st.integers(1, k)),
    )


@st.composite
def _scenarios(draw):
    n_servers = draw(st.integers(1, 6))
    bandwidth = draw(
        st.one_of(
            st.just(1e8),
            st.lists(
                st.sampled_from([5e7, 1e8, 2e8]),
                min_size=n_servers,
                max_size=n_servers,
            ).map(np.array),
        )
    )
    # 6e7 binds for any fan-out of two or more flows.
    client_bandwidth = draw(st.sampled_from([None, 6e7, 1.5e8, 1e15]))
    cluster = ClusterSpec(
        n_servers=n_servers,
        bandwidth=bandwidth,
        client_bandwidth=client_bandwidth,
    )
    n_files = draw(st.integers(1, 5))
    plans = []
    for _ in range(n_files):
        if n_servers > 1 and draw(st.booleans()):
            plans.append(draw(_fan_out(n_servers)))
            continue
        k = draw(st.integers(1, 4))
        servers = draw(
            st.lists(
                st.integers(0, n_servers - 1), min_size=k, max_size=k
            )
        )
        sizes = draw(st.lists(_SIZES, min_size=k, max_size=k))
        plans.append(
            ReadOp(
                server_ids=np.array(servers, dtype=np.int64),
                sizes=np.array(sizes),
                join_count=draw(st.integers(1, k)),
                post_fraction=draw(st.sampled_from([0.0, 0.2])),
            )
        )
    n_requests = draw(st.integers(1, 30))
    # Zero gaps give simultaneous arrivals; gaps on the transfer-time
    # grid (1 MB at 100 MB/s is 0.01 s) land arrivals on completions.
    gaps = draw(
        st.lists(
            st.sampled_from([0.0, 0.0, 0.005, 0.01, 0.02, 0.1]),
            min_size=n_requests,
            max_size=n_requests,
        )
    )
    trace = ArrivalTrace(
        times=np.cumsum(gaps),
        file_ids=np.array(
            draw(
                st.lists(
                    st.integers(0, n_files - 1),
                    min_size=n_requests,
                    max_size=n_requests,
                )
            ),
            dtype=np.int64,
        ),
    )
    observers = draw(st.booleans())
    config = SimulationConfig(
        jitter=draw(st.sampled_from(["exponential", "deterministic"])),
        goodput=GoodputModel() if draw(st.booleans()) else None,
        stragglers=(
            StragglerInjector(BingStragglerProfile(probability=0.3))
            if draw(st.booleans())
            else StragglerInjector.none()
        ),
        cache_budget=draw(st.sampled_from([None, 2.5e7])),
        seed=draw(st.integers(0, 3)),
        batch_size=draw(st.sampled_from([None, 1, 4])),
        observers=(
            TimelineConfig(),
            CausalConfig(),
            # Small windows, so the monitor reads the byte ledger mid-run.
            PopularityConfig(
                window_requests=draw(st.sampled_from([1, 4])), top_k=2
            ),
            default_slo_config(),
        )
        if observers
        else (),
    )
    capacity = draw(st.sampled_from([None, 1, 2, 3]))
    return trace, _ScriptedPlanner(plans), cluster, config, capacity


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_scenarios())
def test_engine_matches_oracle(scenario):
    trace, planner, cluster, config, capacity = scenario
    _assert_same(*_run_both(trace, planner, cluster, config, capacity))


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_scenarios())
def test_fifo_engine_matches_oracle(scenario):
    trace, planner, cluster, config, _capacity = scenario
    new = FifoDiscipline().run(
        RequestLifecycle(trace, planner, cluster, config, "fifo")
    )
    old = run_fifo(RequestLifecycle(trace, planner, cluster, config, "fifo"))
    _assert_same(new, old)


@pytest.mark.parametrize("capacity", ["fifo", None, 2])
def test_file_over_the_cache_budget_is_an_uncached_miss(capacity):
    """File 0 holds 30 MB against a 25 MB budget: every request for it
    misses and pays the penalty, and it never enters the cache, so file
    1 (10 MB) misses once and then hits.  Engine and oracle agree."""
    cluster = ClusterSpec(n_servers=3, bandwidth=1e8, client_bandwidth=1.5e8)
    planner = _ScriptedPlanner(
        [
            ReadOp(server_ids=np.array([0, 1, 2]), sizes=np.full(3, 1e7)),
            ReadOp(server_ids=np.array([1]), sizes=np.array([1e7])),
        ]
    )
    file_ids = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
    trace = ArrivalTrace(times=np.arange(6) * 0.5, file_ids=file_ids)

    def run(budget):
        config = _exact(
            cache_budget=budget,
            warmup_fraction=0.0,
            observers=_RECORDED + (default_slo_config(),),
        )
        if capacity == "fifo":
            new = FifoDiscipline().run(
                RequestLifecycle(trace, planner, cluster, config, "fifo")
            )
            old = run_fifo(
                RequestLifecycle(trace, planner, cluster, config, "fifo")
            )
        else:
            new, old = _run_both(trace, planner, cluster, config, capacity)
        _assert_same(new, old)
        return new

    result, uncached = run(2.5e7), run(None)
    assert (result.hits, result.misses) == (2, 4)
    exemplars = sorted(
        result.sections["timeline"]["tail"]["exemplars"],
        key=lambda e: e["req"],
    )
    missed = [e["missed"] for e in exemplars]
    assert missed == [True, True, True, False, True, False]
    miss = next(
        o for o in result.sections["slo"]["objectives"] if o["kind"] == "miss"
    )
    assert miss["bad"] == 4
    # The cache changes no queueing: a miss is the uncached latency times
    # the penalty, a hit the uncached latency.
    penalty = np.where(file_ids == 0, 3.0, 1.0)
    penalty[1] = 3.0
    assert _hex(result.latencies) == _hex(uncached.latencies * penalty)


def test_arrival_tying_a_completion_goes_first():
    """Request 1 arrives at 0.01 + 0.02 s, the instant request 0's 2 MB
    flow on server 1 completes (0.01 s + 2 MB at 100 MB/s).  The arrival
    must be handled first, as in the oracle's ``(time, kind, id)`` order;
    handling the completion first changes request 0's latency."""
    cluster = ClusterSpec(n_servers=3, bandwidth=1e8, client_bandwidth=1e15)
    planner = _ScriptedPlanner(
        [ReadOp(server_ids=np.array([2, 1]), sizes=np.array([1e6, 2e6]))]
    )
    trace = ArrivalTrace(
        times=np.cumsum([0.01, 0.02, 0.005]), file_ids=np.zeros(3, np.int64)
    )
    new, old = _run_both(trace, planner, cluster, _exact(), None)
    _assert_same(new, old)


def test_tied_sibling_with_a_residue_finishes_after_the_instant():
    """Two 3 MB reads on two 100 MB/s servers arrive at 0.3 s and tie at
    ``t = 0.3 + 0.03``.  ``t - 0.3`` rounds short of 0.03, so the second
    keeps a positive residue; retiring the first re-rates it to
    ``t + r / rate``, one ulp past ``t``.  The instant step must leave it
    for later rather than retire both at ``t``."""
    bandwidth = 1e8
    a, size = 0.3, 3e6
    t = a + size / bandwidth
    r = size - bandwidth * (t - a)
    assert r > 0 and t + r / bandwidth > t
    cluster = ClusterSpec(
        n_servers=2, bandwidth=bandwidth, client_bandwidth=1e15
    )
    planner = _ScriptedPlanner(
        [ReadOp(server_ids=np.array([0, 1]), sizes=np.array([size, size]))]
    )
    trace = ArrivalTrace(times=np.array([a]), file_ids=np.zeros(1, np.int64))
    new, old = _run_both(trace, planner, cluster, _exact(), None)
    _assert_same(new, old)
    assert new.latencies[0] > t - a


def test_flow_rounding_onto_the_instant_cuts_into_the_tie_group():
    """Three client-capped reads (50 MB/s each) arrive at 0: partitions 1
    and 2 hold 1 MB and tie at 0.02 s; partition 0 holds one ulp more and
    ends one ulp later.  Retiring partition 1 lifts partition 0 to 75 MB/s,
    which rounds it onto 0.02, so it retires before partition 2, which is
    then the join's critical partition.  Retiring 1 and 2 together would
    make partition 0 critical."""
    size = 1e6
    big = math.nextafter(size, math.inf)
    capped = 1.5e8 / 3
    t = size / capped
    assert big / capped > t
    r = big - capped * t
    assert t + r / (1.5e8 / 2) == t
    cluster = ClusterSpec(n_servers=3, bandwidth=1e8, client_bandwidth=1.5e8)
    planner = _ScriptedPlanner(
        [
            ReadOp(
                server_ids=np.array([0, 1, 2]),
                sizes=np.array([big, size, size]),
            )
        ]
    )
    trace = ArrivalTrace(times=np.zeros(1), file_ids=np.zeros(1, np.int64))
    config = _exact(observers=_RECORDED)
    _assert_same(*_run_both(trace, planner, cluster, config, None))


def test_arrival_at_the_instant_splits_the_tie_group():
    """Four 1 MB reads on four servers arrive at 0.1 s and tie at 0.11 s,
    where a second request's reads land on servers 1 and 2.  The arrival
    comes first and halves the shares there, pushing those two flows (with
    their rounding residues) one ulp past 0.11."""
    bandwidth = 1e8
    size = 1e6
    t = 0.1 + size / bandwidth
    cluster = ClusterSpec(
        n_servers=4, bandwidth=bandwidth, client_bandwidth=1e15
    )
    planner = _ScriptedPlanner(
        [
            ReadOp(server_ids=np.arange(4), sizes=np.full(4, size)),
            ReadOp(server_ids=np.array([1, 2]), sizes=np.full(2, size)),
        ]
    )
    trace = ArrivalTrace(times=np.array([0.1, t]), file_ids=np.array([0, 1]))
    config = _exact(observers=_RECORDED)
    _assert_same(*_run_both(trace, planner, cluster, config, None))


def test_limited_wake_inside_a_tie_group():
    """``limited(2)``: request 0 holds server 0 with a long read; request
    1's five reads go to servers 1, 2, 0, 3 and 0 again, so the last waits.
    The first four tie at 0.02 s (client cap 200 MB/s over four, and half
    of server 0); retiring the one on server 0 wakes the waiting read,
    which lowers its request's share mid-instant."""
    cluster = ClusterSpec(n_servers=4, bandwidth=1e8, client_bandwidth=2e8)
    planner = _ScriptedPlanner(
        [
            ReadOp(server_ids=np.array([0]), sizes=np.array([1e8])),
            ReadOp(
                server_ids=np.array([1, 2, 0, 3, 0]),
                sizes=np.array([1e6, 1e6, 1e6, 1e6, 5e5]),
            ),
        ]
    )
    trace = ArrivalTrace(times=np.zeros(2), file_ids=np.array([0, 1]))
    config = _exact(observers=_RECORDED)
    _assert_same(*_run_both(trace, planner, cluster, config, 2))


def test_straggler_reports_pushed_inside_a_tie_group():
    """Six client-capped 1 MB reads tie; with seed 0 one of request 0's
    six straggles, so the instant step pushes its late report between the
    joins' other notifications (the join needs five)."""
    cluster = ClusterSpec(n_servers=6, bandwidth=1e8, client_bandwidth=1.5e8)
    planner = _ScriptedPlanner(
        [
            ReadOp(
                server_ids=np.arange(6), sizes=np.full(6, 1e6), join_count=5
            )
        ]
    )
    trace = ArrivalTrace(
        times=np.array([0.0, 0.01]), file_ids=np.zeros(2, np.int64)
    )
    config = _exact(
        stragglers=StragglerInjector(BingStragglerProfile(probability=0.5)),
        seed=0,
        observers=_RECORDED,
    )
    _j0, batch = next(
        RequestLifecycle(trace, planner, cluster, config, "ps").batches()
    )
    straggled = batch.extra[:6] > 0
    assert straggled.any() and not straggled.all()
    _assert_same(*_run_both(trace, planner, cluster, config, None))


def _policy_scenario():
    cluster = ClusterSpec(n_servers=8, bandwidth=1e8, client_bandwidth=2e8)
    pop = paper_fileset(40, size_mb=20, zipf_exponent=1.1, total_rate=12.0)
    trace = poisson_trace(pop, n_requests=300, seed=11)
    return trace, pop, cluster


_POLICIES = {
    "sp-cache": lambda pop, cl: SPCachePolicy(pop, cl, alpha=2e-7, seed=5),
    "ec-cache": lambda pop, cl: ECCachePolicy(pop, cl, k=4, n=6, seed=5),
    "selective-replication": lambda pop, cl: SelectiveReplicationPolicy(
        pop, cl, top_fraction=0.1, replicas=3, seed=5
    ),
}


@pytest.mark.parametrize("capacity", [None, 2])
@pytest.mark.parametrize("batch_size", [None, 1, 64])
@pytest.mark.parametrize("scheme", sorted(_POLICIES))
def test_paper_policies_match_oracle(scheme, batch_size, capacity):
    """The figures' three schemes under the figures' engine settings
    (deterministic jitter, natural stragglers) with both recording
    observers on."""
    trace, pop, cluster = _policy_scenario()
    policy = _POLICIES[scheme](pop, cluster)
    config = SimulationConfig(
        jitter="deterministic",
        stragglers=StragglerInjector.natural(),
        seed=23,
        batch_size=batch_size,
        observers=(TimelineConfig(), CausalConfig()),
    )
    new, old = _run_both(trace, policy, cluster, config, capacity)
    _assert_same(new, old)
    assert "timeline" in new.sections and "causal" in new.sections
