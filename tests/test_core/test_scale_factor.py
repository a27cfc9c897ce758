"""Algorithm 1: initialization, stop rules, and outcome quality."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.network import GoodputModel
from repro.common import ClusterSpec, Gbps, MB
from repro.core import optimal_scale_factor, partition_counts
from repro.workloads import BingStragglerProfile, paper_fileset


@pytest.fixture(scope="module")
def pop300():
    return paper_fileset(300, size_mb=100, zipf_exponent=1.05, total_rate=8.0)


@pytest.fixture(scope="module")
def cluster30():
    return ClusterSpec(n_servers=30, bandwidth=Gbps)


def test_initial_alpha_splits_hottest_into_n_over_3(pop300, cluster30):
    result = optimal_scale_factor(pop300, cluster30, seed=0)
    first_alpha = result.trajectory[0][0]
    k_max = partition_counts(pop300, first_alpha, n_servers=30).max()
    assert k_max == 10  # N/3


def test_paper_mode_stops_on_flatness(pop300, cluster30):
    result = optimal_scale_factor(pop300, cluster30, mode="paper", seed=0)
    assert result.n_iterations < 60
    # Final two trajectory bounds differ by <= 1 %, or the clamp was hit.
    if result.n_iterations >= 2:
        (_, b_prev), (_, b_last) = result.trajectory[-2:]
        ks_last = partition_counts(
            pop300, result.trajectory[-1][0], n_servers=30
        )
        assert (
            abs(b_last - b_prev) <= 0.011 * b_prev or ks_last.min() == 30
        )


def test_returned_alpha_is_best_of_trajectory(pop300, cluster30):
    result = optimal_scale_factor(pop300, cluster30, seed=0)
    finite = [b for _, b in result.trajectory if np.isfinite(b)]
    assert result.bound == pytest.approx(min(finite))


def test_sweep_mode_reaches_saturation_or_cap(pop300, cluster30):
    result = optimal_scale_factor(pop300, cluster30, mode="sweep", seed=0)
    last_alpha = result.trajectory[-1][0]
    ks = partition_counts(pop300, last_alpha, n_servers=30)
    assert ks.min() == 30 or result.n_iterations == 60


def test_sweep_bound_no_worse_than_paper(pop300, cluster30):
    kwargs = dict(
        goodput=GoodputModel(),
        client_cap=True,
        service_distribution="deterministic",
        seed=0,
    )
    paper = optimal_scale_factor(pop300, cluster30, mode="paper", **kwargs)
    sweep = optimal_scale_factor(pop300, cluster30, mode="sweep", **kwargs)
    assert sweep.bound <= paper.bound + 1e-12


def test_selective_outcome_on_fig11_workload(cluster30):
    """100 files, straggler-aware paper search: only a minority split
    (the Fig. 11 result)."""
    pop = paper_fileset(100, size_mb=100, zipf_exponent=1.05, total_rate=8.0)
    result = optimal_scale_factor(
        pop,
        cluster30,
        goodput=GoodputModel(),
        straggler_moments=BingStragglerProfile().moments(),
        client_cap=True,
        service_distribution="deterministic",
        mode="paper",
        seed=0,
    )
    ks = partition_counts(pop, result.alpha, n_servers=30)
    split_fraction = (ks > 1).mean()
    assert 0.02 <= split_fraction <= 0.6
    assert ks.max() > 1  # the hottest file definitely splits


def test_alpha_grows_with_load(cluster30):
    """Heavier aggregate load should not shrink the chosen alpha."""
    light = paper_fileset(200, size_mb=100, total_rate=4.0)
    heavy = paper_fileset(200, size_mb=100, total_rate=20.0)
    kwargs = dict(
        goodput=GoodputModel(),
        client_cap=True,
        service_distribution="deterministic",
        mode="sweep",
        seed=0,
    )
    a_light = optimal_scale_factor(light, cluster30, **kwargs).alpha
    a_heavy = optimal_scale_factor(heavy, cluster30, **kwargs).alpha
    assert a_heavy >= a_light * 0.5  # never collapses under load


def test_validation(pop300, cluster30):
    with pytest.raises(ValueError):
        optimal_scale_factor(pop300, cluster30, growth=1.0)
    with pytest.raises(ValueError):
        optimal_scale_factor(pop300, cluster30, improvement_threshold=0.0)
    with pytest.raises(ValueError):
        optimal_scale_factor(pop300, cluster30, mode="magic")
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_iterations"):
            optimal_scale_factor(pop300, cluster30, max_iterations=bad)
    for bad in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="initial_partitions_fraction"):
            optimal_scale_factor(
                pop300, cluster30, initial_partitions_fraction=bad
            )


def test_single_iteration_search(pop300, cluster30):
    result = optimal_scale_factor(pop300, cluster30, max_iterations=1, seed=0)
    assert result.n_iterations == 1
    assert (result.alpha, result.bound) == result.trajectory[0]


def test_trajectory_alphas_form_geometric_ladder(pop300, cluster30):
    result = optimal_scale_factor(pop300, cluster30, seed=0)
    alphas = [a for a, _ in result.trajectory]
    ratios = np.diff(np.log(alphas))
    assert np.allclose(ratios, np.log(1.5))


def test_deterministic_given_seed(pop300, cluster30):
    a = optimal_scale_factor(pop300, cluster30, seed=42)
    b = optimal_scale_factor(pop300, cluster30, seed=42)
    assert a.alpha == b.alpha and a.bound == b.bound


def test_alpha_in_sane_units(pop300, cluster30):
    """On the Fig. 8 workload the paper-mode elbow lands near 1-3 in
    MB-load units (Fig. 8 shows it at ~1-2)."""
    result = optimal_scale_factor(pop300, cluster30, mode="paper", seed=0)
    assert 0.2 <= result.alpha * MB <= 10.0
