"""Counter-keyed draws: pinned values, statistical sanity, path agreement.

Every simulation draw is ``u(seed, purpose, request, slot)``
(:mod:`repro.cluster.engine.draws`).  These tests pin a few values so
the stream cannot drift silently, check that the uniforms look uniform
and independent along every key axis, check that the oracles'
per-request rows and the batched gather read identical bits, and check
the policy plans built on top (EC-Cache's ``k + 1`` distinct shards,
uniform replica picks).
They also cover the seed that keys everything.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import SimulationConfig, StragglerInjector, simulate_reads
from repro.cluster.engine import draws
from repro.cluster.engine.draws import (
    FACTOR,
    JITTER,
    PLAN,
    SERVER_MASK,
    STRAGGLE,
    request_keys,
    slot_uniforms,
    uniforms,
)
from repro.common import ClusterSpec
from repro.policies import ECCachePolicy, SelectiveReplicationPolicy, SPCachePolicy
from repro.workloads import paper_fileset, poisson_trace
from repro.workloads.bing import BingStragglerProfile

from .keyed_draws import KeyedDraws

SEED = 23
# Chi-square critical values at significance 0.001.
CHI2_999 = {3: 16.266, 99: 148.230}


def _chi2(counts: np.ndarray) -> float:
    expected = counts.sum() / counts.size
    return float(((counts - expected) ** 2 / expected).sum())


def test_pinned_values_for_seed_23():
    pinned = {
        (PLAN, 0, 0): "0x1.e57ff1087c250p-2",
        (JITTER, 1, 2): "0x1.196ab8052bc22p-1",
        (STRAGGLE, 1000, 5): "0x1.230dddb8218c0p-6",
        (FACTOR, 7, 0): "0x1.3dd5706888bd3p-1",
        (SERVER_MASK, 0, 29): "0x1.5d9d7294d5db0p-5",
    }
    for (purpose, request, slot), value in pinned.items():
        assert float(uniforms(SEED, purpose, request, slot)).hex() == value


def test_uniforms_are_53_bit_and_in_range():
    u = uniforms(SEED, JITTER, np.arange(2000)[:, None], np.arange(16))
    assert u.dtype == np.float64
    assert (u >= 0.0).all() and (u < 1.0).all()
    scaled = u * 2.0**53
    assert np.array_equal(scaled, np.floor(scaled))


def test_chi_square_uniformity():
    u = uniforms(SEED, JITTER, np.arange(10_000)[:, None], np.arange(10))
    counts = np.bincount((u.ravel() * 100).astype(np.int64), minlength=100)
    assert _chi2(counts) < CHI2_999[99]


@pytest.mark.parametrize(
    "other",
    [
        dict(request=1),  # adjacent request
        dict(slot=1),  # adjacent slot
        dict(purpose=1),  # next purpose
        dict(seed=1),  # adjacent seed
    ],
    ids=["request", "slot", "purpose", "seed"],
)
def test_adjacent_keys_are_uncorrelated(other):
    n = 100_000
    reqs = np.arange(n)
    slots = np.arange(n) % 7
    a = uniforms(SEED, STRAGGLE, reqs, slots)
    b = uniforms(
        SEED + other.get("seed", 0),
        STRAGGLE + other.get("purpose", 0),
        reqs + other.get("request", 0),
        slots + other.get("slot", 0),
    )
    # 5 standard errors of a zero correlation.
    assert abs(np.corrcoef(a, b)[0, 1]) < 5.0 / np.sqrt(n)


def test_scalar_table_rows_equal_batched_gather():
    """The oracles' per-request row (:class:`KeyedDraws`) is bit-identical
    to the batched gather at the same (request, slot), raw and through
    the float transforms."""
    profile = BingStragglerProfile()
    transforms = {
        "uniform": lambda u: u,
        "exponential": draws.exponential,
        "factor": profile.factor_at,
    }
    rng = np.random.default_rng(0)
    k = rng.integers(1, 12, size=3000)
    j0 = 517
    reqs = np.arange(j0, j0 + k.size)
    pos = np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)
    keyed = KeyedDraws(SimpleNamespace(seed=SEED, planner=None))
    for name, fn in transforms.items():
        rows = np.concatenate(
            [fn(keyed.row(JITTER, int(j), int(kj))) for j, kj in zip(reqs, k)]
        )
        flat = fn(slot_uniforms(np.repeat(request_keys(SEED, JITTER, reqs), k), pos))
        assert [x.hex() for x in rows.tolist()] == [
            x.hex() for x in flat.tolist()
        ], name
        # Gathering only a subset (the planner draws factors at hits only)
        # reads the same bits as the full gather.
        sel = rng.random(pos.size) < 0.1
        keys = np.repeat(request_keys(SEED, JITTER, reqs), k)
        part = fn(slot_uniforms(keys[sel], pos[sel]))
        assert np.array_equal(part, flat[sel]), name


def _policy_scenario():
    cluster = ClusterSpec(n_servers=12, bandwidth=1e8)
    pop = paper_fileset(30, size_mb=20, zipf_exponent=1.1, total_rate=8.0)
    return pop, cluster


def test_ec_cache_fetches_k_plus_one_distinct_shards():
    pop, cluster = _policy_scenario()
    policy = ECCachePolicy(pop, cluster, k=4, n=7, seed=3)
    n = 5000
    fids = np.arange(n) % pop.n_files
    u = uniforms(SEED, PLAN, np.arange(n)[:, None], np.arange(policy.plan_slots))
    batch = policy.plan_reads(fids, u)
    assert (batch.k == 5).all() and (batch.join_count == 4).all()
    servers = batch.servers.reshape(n, 5)
    for b in range(n):
        row = servers[b]
        assert np.unique(row).size == 5
        assert set(row.tolist()) <= set(policy.servers_of[fids[b]].tolist())
        op = policy.plan_read(int(fids[b]), u[b])
        assert np.array_equal(op.server_ids, row)
        assert np.array_equal(op.sizes, batch.sizes[5 * b : 5 * b + 5])
    # Every shard of a file is fetched about equally often (5 of 7).
    hot = servers[fids == 0].ravel()
    counts = np.array([(hot == s).sum() for s in policy.servers_of[0]])
    assert counts.min() > 0.6 * counts.mean()


def test_replica_picks_are_uniform():
    pop, cluster = _policy_scenario()
    policy = SelectiveReplicationPolicy(
        pop, cluster, top_fraction=0.1, replicas=4, seed=3
    )
    hot = int(np.argmax(pop.popularities))
    replicas = policy.servers_of[hot]
    assert replicas.size == 4
    n = 40_000
    u = uniforms(SEED, PLAN, np.arange(n)[:, None], np.arange(1))
    batch = policy.plan_reads(np.full(n, hot), u)
    counts = np.array([(batch.servers == s).sum() for s in replicas])
    assert counts.sum() == n
    assert _chi2(counts) < CHI2_999[3]
    # The scalar plan reads the same replica for the same uniform.
    for b in range(0, n, 997):
        assert policy.plan_read(hot, u[b]).server_ids[0] == batch.servers[b]


def _run(seed):
    cluster = ClusterSpec(n_servers=6, bandwidth=1e8)
    pop = paper_fileset(20, size_mb=20, zipf_exponent=1.1, total_rate=8.0)
    policy = SPCachePolicy(pop, cluster, alpha=2e-7, seed=5)
    trace = poisson_trace(pop, n_requests=200, seed=11)
    cfg = SimulationConfig(
        discipline="fifo",
        jitter="exponential",
        stragglers=StragglerInjector.natural(),
        seed=seed,
    )
    return simulate_reads(trace, policy, cluster, cfg)


@pytest.mark.parametrize(
    "seed, error",
    [
        (-1, ValueError),
        (2**64, ValueError),
        (1.5, TypeError),
        (True, TypeError),
        (np.bool_(True), TypeError),
        ("x", TypeError),
    ],
)
def test_seed_validation_names_seed_and_value(seed, error):
    with pytest.raises(error, match="seed") as info:
        SimulationConfig(seed=seed)
    assert repr(seed) in str(info.value)


def test_seed_bounds_and_integer_types_accepted():
    for seed in (0, 2**64 - 1, np.int64(7), np.uint64(2**63)):
        assert SimulationConfig(seed=seed).seed == seed
    assert _run(np.int64(7)).seed == 7
    assert np.array_equal(_run(np.int64(7)).latencies, _run(7).latencies)


def test_none_seed_draws_a_key_recorded_on_the_result():
    a = _run(None)
    b = _run(None)
    assert isinstance(a.seed, int) and 0 <= a.seed < 2**64
    assert a.seed != b.seed
    # The recorded key replays the run exactly.
    assert np.array_equal(_run(a.seed).latencies, a.latencies)
    assert _run(5).seed == 5
