"""The batched engine against the per-request oracles, bit for bit.

Every discipline plans through the batch planner
(:mod:`repro.cluster.engine.batch`); ``fifo_oracle.py`` and
``heap_oracle.py`` keep the per-request loops it replaced, which read the
same keyed draws one ``(request, slot)`` row at a time and plan with the
policy's ``plan_read``.  The acceptance bar is *byte identity*, not
statistical closeness: every paper policy (SP-Cache template gather,
EC-Cache late-binding argsort, selective-replication replica pick),
every discipline, every draw consumer (jitter, per-read and per-server
stragglers, alone and together), any batch size, duplicate-server plans,
LRU admission and streaming input must reproduce the oracle's
:class:`SimulationResult` exactly (floats compared via ``float.hex``
through ``array_equal``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import (
    SimulationConfig,
    StragglerInjector,
    simulate_reads,
)
from repro.cluster.client import ReadBatch, ReadOp
from repro.cluster.engine import DEFAULT_BATCH_SIZE, RequestLifecycle
from repro.cluster.network import GoodputModel
from repro.common import ClusterSpec
from repro.policies import (
    ECCachePolicy,
    SelectiveReplicationPolicy,
    SPCachePolicy,
)
from repro.workloads import PoissonStream, paper_fileset, poisson_trace
from repro.workloads.arrivals import ArrivalTrace
from repro.workloads.bing import BingStragglerProfile

from .heap_oracle import simulate_oracle


_POLICIES = {
    "sp-cache": lambda pop, cl: SPCachePolicy(pop, cl, alpha=2e-7, seed=5),
    "ec-cache": lambda pop, cl: ECCachePolicy(pop, cl, k=3, n=5, seed=5),
    "selective-replication": lambda pop, cl: SelectiveReplicationPolicy(
        pop, cl, top_fraction=0.2, replicas=3, seed=5
    ),
}


def _scenario(scheme="sp-cache"):
    cluster = ClusterSpec(n_servers=6, bandwidth=1e8, client_bandwidth=4e8)
    pop = paper_fileset(40, size_mb=20, zipf_exponent=1.1, total_rate=8.0)
    policy = _POLICIES[scheme](pop, cluster)
    trace = poisson_trace(pop, n_requests=400, seed=11)
    return trace, policy, cluster, pop


def _assert_identical(a, b, context=""):
    assert np.array_equal(a.latencies, b.latencies), f"latencies {context}"
    assert np.array_equal(a.server_bytes, b.server_bytes), f"bytes {context}"
    assert np.array_equal(a.arrival_times, b.arrival_times), context
    assert np.array_equal(a.file_ids, b.file_ids), context
    assert a.hits == b.hits and a.misses == b.misses, context
    # The end-of-run snapshot (incl. straggler_reads, imbalance_eta) is
    # sim-time only — fully deterministic, so it must match exactly too.
    assert a.metrics == b.metrics, context


def _configs(pop):
    """One config per combination of draw consumers."""
    return {
        # exponential jitter + per-read stragglers, throttled LRU
        "jitter+per-read": SimulationConfig(
            jitter="exponential",
            goodput=GoodputModel(),
            stragglers=StragglerInjector(
                BingStragglerProfile(probability=0.2)
            ),
            seed=23,
            cache_budget=0.6 * pop.total_bytes,
            miss_penalty=2.0,
        ),
        # per-read stragglers only (the figures' configuration)
        "per-read": SimulationConfig(
            jitter="deterministic",
            stragglers=StragglerInjector.natural(),
            seed=23,
        ),
        # per-server stragglers only
        "per-server": SimulationConfig(
            jitter="deterministic",
            stragglers=StragglerInjector.intensive(),
            seed=23,
        ),
        # exponential jitter only
        "jitter": SimulationConfig(
            jitter="exponential",
            stragglers=StragglerInjector.none(),
            seed=23,
        ),
        # no draws beyond the plan's
        "none": SimulationConfig(
            jitter="deterministic",
            stragglers=StragglerInjector.none(),
            seed=23,
        ),
    }


# Every (draws, discipline, scheme) case; the SP-Cache cases keep the
# ``draws-discipline`` ids this test had before it covered every policy.
_PARITY_CASES = [
    pytest.param(
        draws,
        discipline,
        scheme,
        id="-".join(
            [draws, discipline] + ([scheme] if scheme != "sp-cache" else [])
        ),
    )
    for scheme in sorted(_POLICIES)
    for discipline in ("fifo", "ps", "limited(2)")
    for draws in ("jitter+per-read", "per-read", "per-server", "jitter", "none")
]


@pytest.mark.parametrize("draws, discipline, scheme", _PARITY_CASES)
def test_batched_matches_scalar_bitwise(draws, discipline, scheme):
    trace, policy, cluster, pop = _scenario(scheme)
    cfg = replace(_configs(pop)[draws], discipline=discipline)
    scalar = simulate_oracle(trace, policy, cluster, cfg)
    for batch_size in (None, 1, 64, 1000):
        batched = simulate_reads(
            trace, policy, cluster, replace(cfg, batch_size=batch_size)
        )
        _assert_identical(
            scalar, batched, f"{scheme}/{discipline}/{draws}/bs={batch_size}"
        )


class _DupServerPlanner:
    """Plans every read across duplicated server ids (k=3, two distinct):
    each partition is its own queue entry, back to back on its server."""

    def __init__(self, pop):
        self.sizes = pop.sizes

    def plan_read(self, file_id, u=None):
        return ReadOp(
            server_ids=np.array([file_id % 3, file_id % 3, 2], dtype=np.int64),
            sizes=np.full(3, float(self.sizes[file_id]) / 3.0),
        )

    def plan_reads(self, file_ids, u=None):
        return ReadBatch.from_ops([self.plan_read(int(f)) for f in file_ids])

    def footprint(self):
        return float(np.sum(self.sizes))


@pytest.mark.parametrize("discipline", ["fifo", "ps"])
def test_duplicate_server_plans_match_oracle(discipline):
    trace, _, cluster, pop = _scenario()
    planner = _DupServerPlanner(pop)
    cfg = SimulationConfig(
        discipline=discipline,
        jitter="deterministic",
        stragglers=StragglerInjector.none(),
        seed=23,
    )
    oracle = simulate_oracle(trace, planner, cluster, cfg)
    for batch_size in (None, 64):
        batched = simulate_reads(
            trace, planner, cluster, replace(cfg, batch_size=batch_size)
        )
        _assert_identical(oracle, batched, f"dup/{discipline}/{batch_size}")


class _TwoOnOne:
    """Two 1-byte partitions, both on server 0; only ``plan_read``."""

    def plan_read(self, file_id, u):
        return ReadOp(server_ids=np.array([0, 0]), sizes=np.ones(2))

    def footprint(self, file_id):
        return 2.0


@pytest.mark.parametrize("discipline", ["fifo", "ps", "limited(1)"])
def test_same_server_partitions_queue_back_to_back(discipline):
    """Closed form: on a 1 B/s server, two 1-byte reads take 2 s whether
    they queue (fifo) or share the NIC (ps), and both bytes count."""
    cluster = ClusterSpec(n_servers=2, bandwidth=1.0, client_bandwidth=1e12)
    trace = ArrivalTrace(np.zeros(1), np.zeros(1, dtype=np.int64))
    cfg = SimulationConfig(
        discipline=discipline, jitter="deterministic", goodput=None, seed=0
    )
    for run in (simulate_reads, simulate_oracle):
        result = run(trace, _TwoOnOne(), cluster, cfg)
        assert result.latencies.tolist() == [2.0], run.__name__
        assert result.server_bytes.tolist() == [2.0, 0.0], run.__name__


@pytest.mark.parametrize("discipline", ["fifo", "ps", "limited(2)"])
def test_stream_input_matches_materialized_trace(discipline):
    trace, policy, cluster, pop = _scenario()
    cfg = SimulationConfig(
        discipline=discipline,
        jitter="deterministic",
        stragglers=StragglerInjector.natural(),
        seed=23,
        batch_size=64,
    )
    from_trace = simulate_reads(trace, policy, cluster, cfg)
    stream = PoissonStream(pop, n_requests=400, seed=11)
    from_stream = simulate_reads(stream, policy, cluster, cfg)
    _assert_identical(from_trace, from_stream, f"stream/{discipline}")


def test_plan_read_only_planners_are_planned_per_request():
    """A planner without ``plan_reads`` runs through ``plan_read`` and
    matches the same policy planned as whole batches."""

    class PlanReadOnly:
        def __init__(self, policy):
            self.policy = policy
            self.name = policy.name
            self.plan_slots = policy.plan_slots

        def plan_read(self, file_id, u):
            return self.policy.plan_read(file_id, u)

        def footprint(self, file_id):
            return self.policy.footprint(file_id)

    for scheme in sorted(_POLICIES):
        trace, policy, cluster, pop = _scenario(scheme)
        cfg = _configs(pop)["jitter+per-read"]
        batched = simulate_reads(trace, policy, cluster, cfg)
        per_request = simulate_reads(trace, PlanReadOnly(policy), cluster, cfg)
        _assert_identical(batched, per_request, scheme)


def test_batch_size_validation():
    trace, policy, cluster, _ = _scenario()
    lc = RequestLifecycle(trace, policy, cluster, SimulationConfig(), "ps")
    assert lc.batch_size == DEFAULT_BATCH_SIZE
    with pytest.raises(ValueError):
        SimulationConfig(batch_size=0)
    with pytest.raises(TypeError):
        SimulationConfig(batch_size=2.5)
    with pytest.raises(TypeError):
        SimulationConfig(batch_size=True)
