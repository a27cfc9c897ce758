"""Vectorized batch planner: bit-exact parity with the scalar engine.

The batched planner (:mod:`repro.cluster.engine.batch`) is a pure
throughput optimization — the acceptance bar is *byte identity*, not
statistical closeness.  Both paths read the same keyed draws
(:mod:`repro.cluster.engine.draws`): the scalar loops slice per-request
rows of chunked draw tables, the planner gathers flat flow arrays and
calls the policy's batched ``plan_reads``.  Every paper policy (SP-Cache
template gather, EC-Cache late-binding argsort, selective-replication
replica pick), every discipline, every draw consumer (jitter, per-read
and per-server stragglers, alone and together), any batch size,
duplicate-server plans, LRU admission, observability collectors, and
streaming input must reproduce the scalar :class:`SimulationResult`
exactly (floats compared via ``float.hex`` through ``array_equal``).
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
from repro.cluster.engine import DEFAULT_BATCH_SIZE, get_batch_size, use_batching
from repro.cluster.network import GoodputModel
from repro.common import ClusterSpec
from repro.policies import (
    ECCachePolicy,
    SelectiveReplicationPolicy,
    SPCachePolicy,
)
from repro.workloads import PoissonStream, paper_fileset, poisson_trace
from repro.workloads.bing import BingStragglerProfile


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
    scalar = simulate_reads(trace, policy, cluster, cfg)
    for batch_size in (1, 64, 1000):
        batched = simulate_reads(
            trace, policy, cluster, replace(cfg, batch_size=batch_size)
        )
        _assert_identical(
            scalar, batched, f"{scheme}/{discipline}/{draws}/bs={batch_size}"
        )


class _DupServerPlanner:
    """Plans every read across duplicated server ids (k=3, two distinct).

    Exercises the scalar-replay fallback: the vectorized per-server FIFO
    recurrence assumes one queue entry per flow, so duplicate servers
    inside one plan must take the exact fancy-index path the scalar
    engine uses.
    """

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
def test_duplicate_server_plans_replay_scalar_semantics(discipline):
    trace, _, cluster, pop = _scenario()
    planner = _DupServerPlanner(pop)
    cfg = SimulationConfig(
        discipline=discipline,
        jitter="deterministic",
        stragglers=StragglerInjector.none(),
        seed=23,
    )
    scalar = simulate_reads(trace, planner, cluster, cfg)
    batched = simulate_reads(
        trace, planner, cluster, replace(cfg, batch_size=64)
    )
    _assert_identical(scalar, batched, f"dup/{discipline}")


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


def test_ambient_batching_context():
    trace, policy, cluster, pop = _scenario()
    cfg = SimulationConfig(
        jitter="deterministic", stragglers=StragglerInjector.natural(), seed=23
    )
    scalar = simulate_reads(trace, policy, cluster, cfg)
    assert get_batch_size() is None
    with use_batching(128):
        assert get_batch_size() == 128
        ambient = simulate_reads(trace, policy, cluster, cfg)
        # An explicit config wins over the ambient value.
        explicit = simulate_reads(
            trace, policy, cluster, replace(cfg, batch_size=32)
        )
    assert get_batch_size() is None
    _assert_identical(scalar, ambient, "ambient")
    _assert_identical(scalar, explicit, "explicit-override")
    with use_batching():
        assert get_batch_size() == DEFAULT_BATCH_SIZE


def test_batch_size_validation():
    with pytest.raises(ValueError):
        SimulationConfig(batch_size=0)
    with pytest.raises(TypeError):
        SimulationConfig(batch_size=2.5)
    with pytest.raises(TypeError):
        SimulationConfig(batch_size=True)
