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
servers).
"""

from __future__ import annotations

import json
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


# Few distinct values, so equal sizes on equal-speed servers tie exactly.
_SIZES = st.sampled_from([1e6, 2e6, 5e6])


@st.composite
def _scenarios(draw):
    n_servers = draw(st.integers(1, 4))
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
    client_bandwidth = draw(st.sampled_from([None, 1.5e8, 1e15]))
    cluster = ClusterSpec(
        n_servers=n_servers,
        bandwidth=bandwidth,
        client_bandwidth=client_bandwidth,
    )
    n_files = draw(st.integers(1, 5))
    plans = []
    for _ in range(n_files):
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
            # Small windows, so the monitor reads the byte ledger mid-run;
            # request-count and sim-time windows fold differently.
            draw(
                st.sampled_from(
                    [
                        PopularityConfig(
                            window_requests=4,
                            top_k=2,
                            capacity=4,
                            min_window_count=1,
                        ),
                        PopularityConfig(
                            window_s=0.02,
                            top_k=2,
                            capacity=4,
                            min_window_count=1,
                        ),
                    ]
                )
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
    config = SimulationConfig(
        jitter="deterministic",
        goodput=None,
        stragglers=StragglerInjector.none(),
    )
    new, old = _run_both(trace, planner, cluster, config, None)
    _assert_same(new, old)


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
    (deterministic jitter, natural stragglers) with both recorders on."""
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
