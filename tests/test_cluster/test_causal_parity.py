"""Cross-engine causal-DAG parity on the engine-parity workloads.

Span identity is deterministic — trace ids hash ``(scheme, engine,
request)`` and span ids hash the role within the tree — so the
per-request oracle (``heap_oracle.simulate_oracle``) and a batched pass
of one workload must produce *byte-identical* causal sections and
span-tree DAGs, for every discipline.  The conservation
invariant (critical-path segment sum == end-to-end latency) must hold
at 1e-9 relative tolerance everywhere, and a trace round trip must
reconstruct 100 % of the request DAGs.

The timeline and causal collectors read one partition log per run, so
each section must come out the same whether the other collector ran or
not, and a timeline tail exemplar must be its causal chain, edge for
edge, under the name map :data:`EXEMPLAR_CHAIN_NAMES`.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import SimulationConfig, StragglerInjector, simulate_reads
from repro.common import ClusterSpec
from repro.obs import (
    CausalConfig,
    RingBufferSink,
    TimelineConfig,
    Tracer,
    causal_from_trace,
    span_forest,
    use_tracer,
)
from repro.policies import SPCachePolicy
from repro.workloads import paper_fileset, poisson_trace
from repro.workloads.bing import BingStragglerProfile

from .heap_oracle import simulate_oracle

DISCIPLINES = ("fifo", "ps", "limited(3)")

#: A timeline tail component and the causal chain edge it equals.
EXEMPLAR_CHAIN_NAMES = (
    ("queueing_s", "queue_s"),
    ("transfer_s", "service_s"),
    ("straggling_s", "transfer_s"),
    ("join_s", "join_s"),
)


def _shared_scenario():
    """Same shape as ``test_timeline_parity._shared_scenario`` (a
    fig13-style fork-join workload small enough to run per-discipline)."""
    cluster = ClusterSpec(n_servers=5, bandwidth=1e8, client_bandwidth=1e15)
    pop = paper_fileset(30, size_mb=20, zipf_exponent=1.1, total_rate=8.0)
    policy = SPCachePolicy(pop, cluster, alpha=2e-7, seed=5)
    trace = poisson_trace(pop, n_requests=300, seed=11)
    return trace, policy, cluster


def _run(discipline, oracle=False, **overrides):
    trace, policy, cluster = _shared_scenario()
    base = dict(
        discipline=discipline,
        jitter="deterministic",
        goodput=None,
        seed=23,
        observers=(CausalConfig(),),
    )
    base.update(overrides)
    run = simulate_oracle if oracle else simulate_reads
    return run(trace, policy, cluster, SimulationConfig(**base))


def _canonical(section):
    return json.dumps(section, sort_keys=True)


@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_batched_section_is_byte_identical_to_scalar(discipline):
    scalar = _run(discipline, oracle=True).sections["causal"]
    for batch_size in (None, 64):
        batched = _run(discipline, batch_size=batch_size).sections["causal"]
        assert _canonical(batched) == _canonical(scalar), batch_size


@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_conservation_holds_at_1e9(discipline):
    for batch_size in (None, 64):
        section = _run(discipline, batch_size=batch_size).sections["causal"]
        conservation = section["conservation"]
        assert conservation["checked"] == 300
        assert conservation["max_rel_err"] <= 1e-9, (
            discipline, batch_size
        )
        assert conservation["ok"]


@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_emitted_dags_identical_scalar_vs_batched(discipline):
    """The span *trees* (not just the aggregates) must match node for
    node: same deterministic ids, same parent edges, same edge values."""
    forests = []
    for oracle in (True, False):
        sink = RingBufferSink()
        with use_tracer(Tracer(sink)):
            _run(discipline, oracle=oracle, batch_size=64)
        roots = [
            r
            for r in span_forest(sink.records)
            if r.get("name") == "request"
        ]
        # Canonicalize: children sorted by span id, volatile nothing —
        # every field of a cspan record is deterministic by design.
        def strip(node):
            clean = {k: v for k, v in node.items() if k != "children"}
            clean["children"] = sorted(
                (strip(c) for c in node["children"]),
                key=lambda c: c["span_id"],
            )
            return clean

        forests.append(
            json.dumps(
                sorted(
                    (strip(r) for r in roots),
                    key=lambda r: r["span_id"],
                ),
                sort_keys=True,
            )
        )
    scalar, batched = forests
    assert scalar == batched


@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_trace_round_trip_reconstructs_every_request(discipline):
    sink = RingBufferSink()
    with use_tracer(Tracer(sink)):
        result = _run(discipline)
    (section,) = causal_from_trace(sink.records)
    assert section["reconstructed"] == result.n_requests
    assert section["dropped"] == 0
    assert section["conservation"]["ok"]
    assert section["conservation"]["max_rel_err"] <= 1e-9


def test_limited_inf_causal_is_exactly_ps():
    """The discipline-endpoint guarantee extends to causal sections,
    modulo the engine label (which names the discipline by design)."""
    ps = _run("ps").sections["causal"]
    inf = _run("limited(inf)").sections["causal"]

    def canonical(section):
        data = dict(section)
        data.pop("engine")
        # chain trace ids hash the engine label; compare the physics
        data["chains"] = [
            {k: v for k, v in c.items() if k != "trace_id"}
            for c in data["chains"]
        ]
        return json.dumps(data, sort_keys=True)

    assert canonical(inf) == canonical(ps)


def _shared_log_run(discipline, observers):
    """Jitter, stragglers and cache misses on: every edge is non-zero
    somewhere."""
    return _run(
        discipline,
        jitter="exponential",
        stragglers=StragglerInjector(BingStragglerProfile(probability=0.3)),
        cache_budget=2e8,
        observers=observers,
    )


@pytest.mark.parametrize("discipline", ("fifo", "ps", "limited(2)"))
def test_each_section_is_independent_of_the_other_collector(discipline):
    both = _shared_log_run(discipline, (TimelineConfig(), CausalConfig()))
    alone = {
        "timeline": _shared_log_run(discipline, (TimelineConfig(),)),
        "causal": _shared_log_run(discipline, (CausalConfig(),)),
    }
    for name, result in alone.items():
        assert list(result.sections) == [name]
        assert _canonical(result.sections[name]) == _canonical(
            both.sections[name]
        ), name


@pytest.mark.parametrize("discipline", ("fifo", "ps", "limited(2)"))
def test_tail_exemplars_are_the_causal_chains(discipline):
    sections = _shared_log_run(
        discipline, (TimelineConfig(), CausalConfig())
    ).sections
    exemplars = sections["timeline"]["tail"]["exemplars"]
    chains = sections["causal"]["chains"]
    assert len(exemplars) == len(chains) == 64
    for exemplar, chain in zip(exemplars, chains):
        assert exemplar["req"] == chain["req"]
        assert exemplar["last_server"] == chain["server"]
        components = exemplar["components"]
        for timeline_name, causal_name in EXEMPLAR_CHAIN_NAMES:
            assert float.hex(components[timeline_name]) == float.hex(
                chain[causal_name]
            ), (exemplar["req"], timeline_name)
    assert any(c["transfer_s"] > 0 for c in chains)  # stragglers
    assert any(c["missed"] for c in chains)
