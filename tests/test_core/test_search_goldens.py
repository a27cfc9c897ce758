"""Pinned Algorithm 1 outcomes for the search configurations the figures run.

``tests/data/golden_search_alphas.json`` holds ``float.hex(alpha)`` and the
trajectory length of every search below, captured from the reference
implementation (per-width Eq. 9 solves, ``setdiff1d`` placement growth).
Any change to the bound evaluation, the solver or the placement RNG stream
that moves a chosen scale factor by one ulp fails here.

Each entry mirrors one call site:

* ``sweep-*`` — :class:`SPCachePolicy`'s default search (figs. 12-14 and
  19-21 on EC2, fig15 on the C4 cluster), seeded like ``default_schemes``;
* ``straggler-*`` — ``straggler_aware=True`` (fig16, fig16_sketch);
* ``paper-*`` — the paper-mode search of fig10 and ``plan_repartition``
  (1k files) and fig11 (straggler moments, 100 files);
* ``rebalance`` — ``SPCacheSystem.rebalance``'s configuration.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cluster.network import GoodputModel
from repro.core import optimal_scale_factor
from repro.experiments.config import C4_CLUSTER, DEFAULTS, EC2_CLUSTER
from repro.workloads import BingStragglerProfile, paper_fileset

GOLDEN = Path(__file__).parents[1] / "data" / "golden_search_alphas.json"

_OVERHEAD_AWARE = dict(
    goodput=GoodputModel(),
    client_cap=True,
    service_distribution="deterministic",
)


def _sweep(straggler_aware: bool = False) -> dict:
    moments = BingStragglerProfile().moments() if straggler_aware else None
    return dict(_OVERHEAD_AWARE, straggler_moments=moments, mode="sweep")


def _sec73(rate: float):
    return paper_fileset(500, size_mb=100, zipf_exponent=1.05, total_rate=rate)


def _fig16(n_files: int):
    return paper_fileset(
        n_files, size_mb=50, zipf_exponent=1.05, total_rate=10.0
    )


#: name -> (population builder, cluster, search kwargs, seed)
SEARCHES = {
    **{
        f"sweep-ec2-rate{rate}": (
            lambda rate=rate: _sec73(rate),
            EC2_CLUSTER,
            _sweep(),
            DEFAULTS.seed_policy,
        )
        for rate in (6, 14, 22)
    },
    **{
        f"sweep-c4-rate{rate}": (
            lambda rate=rate: _sec73(rate),
            C4_CLUSTER,
            _sweep(),
            DEFAULTS.seed_policy,
        )
        for rate in (6, 14, 22)
    },
    "straggler-fig16-100files": (
        lambda: _fig16(100), EC2_CLUSTER, _sweep(True), 0
    ),
    "straggler-fig16-350files": (
        lambda: _fig16(350), EC2_CLUSTER, _sweep(True), 4
    ),
    "straggler-fig16_sketch": (
        lambda: _fig16(300), EC2_CLUSTER, _sweep(True), 0
    ),
    "paper-fig10-1k": (
        lambda: paper_fileset(
            1000, size_mb=100, zipf_exponent=1.05, total_rate=8.0
        ),
        EC2_CLUSTER,
        {},
        0,
    ),
    "paper-fig11": (
        lambda: paper_fileset(
            100, size_mb=100, zipf_exponent=1.05, total_rate=8.0
        ),
        EC2_CLUSTER,
        dict(
            _OVERHEAD_AWARE,
            straggler_moments=BingStragglerProfile().moments(),
            mode="paper",
        ),
        0,
    ),
    "rebalance": (
        lambda: paper_fileset(
            200, size_mb=1, zipf_exponent=1.05, total_rate=14.0
        ),
        EC2_CLUSTER,
        dict(_OVERHEAD_AWARE, mode="sweep"),
        0,
    ),
}


def run_search(name: str) -> dict:
    """The pinned outcome of search ``name``, in the golden file's format."""
    build, cluster, kwargs, seed = SEARCHES[name]
    result = optimal_scale_factor(build(), cluster, seed=seed, **kwargs)
    return {
        "alpha_hex": float.hex(result.alpha),
        "iterations": result.n_iterations,
    }


def test_golden_covers_every_search():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(SEARCHES)


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_search_outcome_is_pinned(name):
    golden = json.loads(GOLDEN.read_text())[name]
    assert run_search(name) == golden
