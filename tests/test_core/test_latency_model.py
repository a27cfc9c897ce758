"""Fork-join M/G/1 bound: consistency with theory and the simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import SimulationConfig, simulate_reads
from repro.cluster.network import GoodputModel
from repro.common import ClusterSpec, FilePopulation
from repro.core import ForkJoinModel, partition_counts
from repro.core.placement import place_partitions_random
from repro.workloads import paper_fileset, poisson_trace
from repro.policies import SPCachePolicy
from repro.workloads import BingStragglerProfile

from . import eq9_oracle


def _single_file_model(rate: float, size: float, bandwidth: float):
    pop = FilePopulation(
        sizes=np.array([size]), popularities=np.array([1.0]), total_rate=rate
    )
    cluster = ClusterSpec(n_servers=1, bandwidth=bandwidth)
    return pop, cluster


def test_single_mm1_bound_equals_closed_form():
    """One file, one server, k=1: the bound must equal the M/M/1 mean
    sojourn 1/(mu - lambda)."""
    lam, size, bw = 4.0, 1.0, 8.0  # mu = 8
    pop, cluster = _single_file_model(lam, size, bw)
    model = ForkJoinModel(pop, cluster)
    ev = model.evaluate(np.array([1]), [np.array([0])])
    assert ev.stable
    assert ev.mean_bound == pytest.approx(1 / (bw - lam), rel=1e-9)


def test_unstable_queue_gives_infinite_bound():
    pop, cluster = _single_file_model(10.0, 1.0, 8.0)  # rho = 1.25
    model = ForkJoinModel(pop, cluster)
    ev = model.evaluate(np.array([1]), [np.array([0])])
    assert not ev.stable
    assert np.isinf(ev.mean_bound)
    assert ev.max_utilisation > 1.0


def test_bound_upper_bounds_fifo_simulation():
    """The Eq. (9) bound must sit above the matching FIFO simulation."""
    pop = paper_fileset(40, size_mb=20, zipf_exponent=1.05, total_rate=6.0)
    cluster = ClusterSpec(n_servers=10, bandwidth=50e6)
    ks = partition_counts(pop, alpha=2e-7, n_servers=10)
    servers_of = place_partitions_random(ks, 10, seed=3)
    bound = ForkJoinModel(pop, cluster).evaluate(ks, servers_of).mean_bound

    policy = SPCachePolicy(pop, cluster, alpha=2e-7, seed=99)
    policy.servers_of = servers_of  # pin the same placement
    policy.piece_sizes = [
        np.full(int(k), s / k) for k, s in zip(ks, pop.sizes)
    ]
    trace = poisson_trace(pop, n_requests=12000, seed=4)
    sim = simulate_reads(
        trace,
        policy,
        cluster,
        SimulationConfig(
            discipline="fifo", jitter="exponential", goodput=None, seed=5
        ),
    )
    assert sim.steady_state_latencies().mean() <= bound * 1.05


def test_goodput_inflates_bound():
    pop = paper_fileset(30, size_mb=50, total_rate=4.0)
    cluster = ClusterSpec(n_servers=10)
    ks = partition_counts(pop, alpha=2e-8, n_servers=10)
    servers_of = place_partitions_random(ks, 10, seed=0)
    plain = ForkJoinModel(pop, cluster).evaluate(ks, servers_of).mean_bound
    lossy = (
        ForkJoinModel(pop, cluster, goodput=GoodputModel())
        .evaluate(ks, servers_of)
        .mean_bound
    )
    assert lossy >= plain


def test_straggler_moments_inflate_bound():
    pop = paper_fileset(30, size_mb=50, total_rate=4.0)
    cluster = ClusterSpec(n_servers=10)
    ks = partition_counts(pop, alpha=2e-7, n_servers=10)
    servers_of = place_partitions_random(ks, 10, seed=0)
    plain = ForkJoinModel(pop, cluster).evaluate(ks, servers_of).mean_bound
    slow = (
        ForkJoinModel(pop, cluster, straggler_moments=(1.1, 1.7, 5.5))
        .evaluate(ks, servers_of)
        .mean_bound
    )
    assert slow > plain


def test_client_cap_inflates_wide_reads_only():
    pop = paper_fileset(10, size_mb=100, total_rate=1.0)
    cluster = ClusterSpec(n_servers=30)  # client cap = 3x server NIC
    ks_narrow = np.ones(10, dtype=np.int64)
    ks_wide = np.full(10, 30, dtype=np.int64)
    for ks in (ks_narrow, ks_wide):
        servers_of = place_partitions_random(ks, 30, seed=0)
        plain = ForkJoinModel(pop, cluster).evaluate(ks, servers_of)
        capped = ForkJoinModel(pop, cluster, client_cap=True).evaluate(
            ks, servers_of
        )
        if ks[0] == 1:
            assert capped.mean_bound == pytest.approx(plain.mean_bound)
        else:
            assert capped.mean_bound > plain.mean_bound


def test_deterministic_service_bound_below_exponential():
    pop = paper_fileset(30, size_mb=50, total_rate=4.0)
    cluster = ClusterSpec(n_servers=10)
    ks = partition_counts(pop, alpha=2e-7, n_servers=10)
    servers_of = place_partitions_random(ks, 10, seed=0)
    exp = ForkJoinModel(pop, cluster).evaluate(ks, servers_of).mean_bound
    det = (
        ForkJoinModel(pop, cluster, service_distribution="deterministic")
        .evaluate(ks, servers_of)
        .mean_bound
    )
    assert det < exp


def test_evaluate_validates_inputs(small_population, small_cluster):
    model = ForkJoinModel(small_population, small_cluster)
    n = small_population.n_files
    ks = np.ones(n, dtype=np.int64)
    with pytest.raises(ValueError):
        model.evaluate(ks[:-1], [np.array([0])] * n)
    with pytest.raises(ValueError):
        model.evaluate(ks, [np.array([0])] * (n - 1))
    with pytest.raises(ValueError):
        model.evaluate(ks, [np.array([0, 1])] * n)  # lengths != ks
    bad_servers = [np.array([99])] * n
    with pytest.raises(ValueError):
        model.evaluate(ks, bad_servers)
    with pytest.raises(ValueError, match="at least one partition"):
        model.evaluate(
            np.zeros(n, dtype=np.int64), [np.empty(0, np.int64)] * n
        )


_VARIANTS = {
    "paper": {},
    "overhead-aware": dict(
        goodput=GoodputModel(),
        client_cap=True,
        service_distribution="deterministic",
    ),
    "stragglers": dict(
        goodput=GoodputModel(),
        straggler_moments=BingStragglerProfile().moments(),
        client_cap=True,
        service_distribution="deterministic",
    ),
}


@pytest.mark.parametrize("variant", sorted(_VARIANTS))
@pytest.mark.parametrize("rate", [2.0, 8.0, 30.0])
def test_evaluate_matches_per_width_oracle(variant, rate):
    """One padded solve per evaluation gives the per-width reference's
    bounds: every file within 1e-12 relative, the per-server aggregates
    exactly, over ragged placements from all-unsplit to every-file-wide
    (rate 30 leaves some placements unstable)."""
    pop = paper_fileset(120, size_mb=100, zipf_exponent=1.05, total_rate=rate)
    cluster = ClusterSpec(n_servers=30, bandwidth=1.25e8)
    model = ForkJoinModel(pop, cluster, **_VARIANTS[variant])
    rng = np.random.default_rng(int(rate))
    for alpha in np.geomspace(3e-9, 1e-5, 7):
        ks = partition_counts(pop, alpha, n_servers=30)
        servers_of = place_partitions_random(ks, 30, seed=rng)
        ours = model.evaluate(ks, servers_of)
        ref = eq9_oracle.evaluate(model, ks, servers_of)
        np.testing.assert_array_equal(ours.utilisation, ref.utilisation)
        assert ours.stable == ref.stable
        assert np.array_equal(
            np.isinf(ours.file_bounds), np.isinf(ref.file_bounds)
        )
        finite = np.isfinite(ref.file_bounds)
        np.testing.assert_allclose(
            ours.file_bounds[finite], ref.file_bounds[finite], rtol=1e-12
        )
        assert ours.mean_bound == pytest.approx(ref.mean_bound, rel=1e-12)
