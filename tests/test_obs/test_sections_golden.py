"""Default-config observer sections, pinned byte for byte against a golden.

One small seeded SP-Cache run per engine family (``fifo`` and ``ps``),
with natural stragglers and a cache budget small enough to miss, runs
every run observer at its default config: ``TimelineConfig()``,
``CausalConfig()``, ``PopularityConfig()`` and ``default_slo_config()``.
4 500 requests roll the popularity monitor's 2 048-request window twice.

``tests/data/golden_observer_sections.json`` holds the ``timelines``,
``causal``, ``popularity`` and ``slo`` sections those runs produced
before the observer configs' fixed knobs became module constants; a
refactor of the observers must leave every value exactly as it was.
Floats survive the JSON round trip exactly (``repr`` round-trips), so
equality here is equality of every bit.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cluster import SimulationConfig, StragglerInjector, simulate_reads
from repro.common import ClusterSpec, Gbps
from repro.obs import CausalConfig, PopularityConfig, TimelineConfig
from repro.obs.slo import default_slo_config
from repro.policies import SPCachePolicy
from repro.workloads import paper_fileset, poisson_trace

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "golden_observer_sections.json"

DISCIPLINES = ("fifo", "ps")


def observer_sections(discipline: str) -> dict[str, dict]:
    """The four observer sections of one seeded run, JSON-normalized."""
    cluster = ClusterSpec(n_servers=6, bandwidth=Gbps)
    pop = paper_fileset(40, size_mb=20, zipf_exponent=1.1, total_rate=6)
    policy = SPCachePolicy(pop, cluster, seed=5)
    trace = poisson_trace(pop, n_requests=4500, seed=11)
    config = SimulationConfig(
        discipline=discipline,
        jitter="deterministic",
        stragglers=StragglerInjector.natural(),
        cache_budget=1.5e8,
        seed=3,
        observers=(
            TimelineConfig(),
            CausalConfig(),
            PopularityConfig(),
            default_slo_config(),
        ),
    )
    sections = simulate_reads(trace, policy, cluster, config).sections
    return json.loads(json.dumps(sections))


@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_default_sections_match_golden(discipline):
    golden = json.loads(GOLDEN.read_text())[discipline]
    sections = observer_sections(discipline)
    assert sorted(sections) == sorted(golden)
    for name in golden:
        assert sections[name] == golden[name], f"{discipline} {name} section"
