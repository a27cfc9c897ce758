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
not.  The timeline tail is the one per-request record of the slowest
requests: rebuilt from the emitted ``cspan`` JSON, the slowest requests
must be the tail's exemplars field for field, trace id included.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import SimulationConfig, StragglerInjector, simulate_reads
from repro.common import ClusterSpec
from repro.obs import (
    CausalConfig,
    FileSink,
    RingBufferSink,
    TimelineConfig,
    Tracer,
    causal_from_trace,
    span_forest,
    use_tracer,
)
from repro.obs.causal import request_trace_id
from repro.policies import SPCachePolicy
from repro.workloads import paper_fileset, poisson_trace
from repro.workloads.bing import BingStragglerProfile

from .heap_oracle import simulate_oracle

DISCIPLINES = ("fifo", "ps", "limited(3)")

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
        return json.dumps(data, sort_keys=True)

    assert canonical(inf) == canonical(ps)


def _shared_log_run(discipline, observers, **overrides):
    """Jitter, stragglers and cache misses on: every edge is non-zero
    somewhere."""
    return _run(
        discipline,
        jitter="exponential",
        stragglers=StragglerInjector(BingStragglerProfile(probability=0.3)),
        cache_budget=2e8,
        observers=observers,
        **overrides,
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


def _hexed(value):
    """``value`` with every float replaced by its ``float.hex``."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    return value


@pytest.mark.parametrize("discipline", ("fifo", "ps", "limited(2)"))
def test_trace_rebuilt_exemplars_are_the_tail_exemplars(discipline, tmp_path):
    path = tmp_path / "run.jsonl"
    with FileSink(path) as sink, use_tracer(Tracer(sink)):
        sections = _shared_log_run(
            discipline,
            (TimelineConfig(), CausalConfig()),
            warmup_fraction=0.0,
        ).sections
    tail = sections["timeline"]["tail"]["exemplars"]
    causal = sections["causal"]
    (rebuilt,) = causal_from_trace(path)
    assert len(tail) == 64
    for exemplar, replayed in zip(tail, rebuilt["exemplars"][:64]):
        scalars = {k: v for k, v in exemplar.items() if k != "partitions"}
        assert _hexed(replayed) == _hexed(scalars), exemplar["req"]
        assert exemplar["trace_id"] == request_trace_id(
            causal["scheme"], causal["engine"], exemplar["req"],
            causal["run_key"],
        )
    assert any(e["components"]["straggling_s"] > 0 for e in tail)
    assert any(e["missed"] for e in tail)
