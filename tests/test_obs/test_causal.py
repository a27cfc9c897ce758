"""Causal tracing: context propagation, spans, collection, reconstruction.

Covers the pieces of :mod:`repro.obs.causal` in isolation — the W3C
traceparent round trip, ``contextvars`` parenting, the collector's
conservation invariant, DAG rebuild from an emitted trace, and the
Chrome flow export — leaving the cross-engine parity property to
``tests/test_cluster/test_causal_parity.py`` and the store data plane
to ``tests/test_store/test_store_causal.py``.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.cluster import SimulationConfig, simulate_reads
from repro.common import ClusterSpec
from repro.obs import (
    CausalConfig,
    RingBufferSink,
    TimelineConfig,
    Tracer,
    TraceContext,
    causal_chrome_events,
    causal_from_trace,
    causal_span,
    collect_causal,
    critical_edge_rows,
    current_context,
    get_causal_config,
    span_forest,
    tail_exemplar_rows,
    use_causal,
    use_context,
    use_tracer,
    write_causal_chrome_trace,
)
from repro.obs.causal import (
    CausalCollector,
    new_span_id,
    new_trace_id,
    request_span_id,
    request_trace_id,
)
from repro.policies import SPCachePolicy
from repro.workloads import paper_fileset, poisson_trace


# -- trace context ---------------------------------------------------------


def test_traceparent_round_trip():
    ctx = TraceContext(new_trace_id(), new_span_id())
    header = ctx.to_traceparent()
    assert header == f"00-{ctx.trace_id}-{ctx.span_id}-01"
    back = TraceContext.from_traceparent(header)
    assert back.trace_id == ctx.trace_id
    assert back.span_id == ctx.span_id
    assert back.parent_id is None  # wire format drops the local parent


def test_child_context_chains_parent():
    root = TraceContext(new_trace_id(), new_span_id())
    child = root.child()
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert child.span_id != root.span_id


@pytest.mark.parametrize(
    "header",
    [
        "not-a-traceparent",
        "00-abc-def-01",  # wrong field widths
        "ff-" + "a" * 32 + "-" + "b" * 16 + "-01",  # forbidden version
        "0z-" + "a" * 32 + "-" + "b" * 16 + "-01",  # non-hex version
        "00-" + "a" * 32 + "-" + "b" * 16 + "-zz",  # non-hex flags
        "00-" + "0" * 32 + "-" + "b" * 16 + "-01",  # all-zero trace id
    ],
)
def test_traceparent_rejects_malformed(header):
    with pytest.raises(ValueError):
        TraceContext.from_traceparent(header)


def test_traceparent_rejects_non_string():
    with pytest.raises(TypeError):
        TraceContext.from_traceparent(123)


def test_context_validates_hex_widths():
    with pytest.raises(ValueError):
        TraceContext("short", new_span_id())
    with pytest.raises(ValueError):
        TraceContext(new_trace_id(), "0" * 16)  # all-zero span id


def test_use_context_installs_and_restores():
    assert current_context() is None
    ctx = TraceContext(new_trace_id(), new_span_id())
    with use_context(ctx) as installed:
        assert installed is ctx
        assert current_context() is ctx
    assert current_context() is None
    with pytest.raises(TypeError):
        with use_context("00-aa-bb-01"):
            pass


# -- causal_span -----------------------------------------------------------


def test_causal_span_noop_without_tracer():
    with causal_span("store.read", file_id=1) as ctx:
        assert ctx is None
        assert current_context() is None


def test_causal_span_emits_and_nests():
    sink = RingBufferSink()
    with use_tracer(Tracer(sink)):
        with causal_span("outer", file_id=7) as outer:
            with causal_span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
                assert current_context() is inner
            assert current_context() is outer
    records = list(sink.records)
    assert [r["name"] for r in records] == ["inner", "outer"]
    inner_rec, outer_rec = records
    assert outer_rec["parent_id"] is None
    assert inner_rec["parent_id"] == outer_rec["span_id"]
    assert outer_rec["file_id"] == 7
    assert outer_rec["wall_s"] >= 0.0


def test_causal_span_parents_under_remote_context():
    """A deserialized traceparent becomes the parent of local spans."""
    remote = TraceContext.from_traceparent(
        "00-" + "a" * 32 + "-" + "b" * 16 + "-01"
    )
    sink = RingBufferSink()
    with use_tracer(Tracer(sink)):
        with use_context(remote):
            with causal_span("local") as ctx:
                assert ctx.trace_id == "a" * 32
                assert ctx.parent_id == "b" * 16
    (record,) = sink.records
    assert record["trace_id"] == "a" * 32
    assert record["parent_id"] == "b" * 16


def test_causal_span_namespaces_reserved_attrs():
    sink = RingBufferSink()
    with use_tracer(Tracer(sink)):
        with causal_span("op", ts=5, name="clash", safe=1):
            pass
    (record,) = sink.records
    assert record["name"] == "op"  # the span machinery owns "name"
    assert record["attr_ts"] == 5
    assert record["attr_name"] == "clash"
    assert record["safe"] == 1


def test_deterministic_request_ids():
    tid = request_trace_id("sp-cache", "fifo", 3)
    assert tid == request_trace_id("sp-cache", "fifo", 3)
    assert tid != request_trace_id("sp-cache", "ps", 3)
    assert len(tid) == 32
    sid = request_span_id(tid, "fetch0")
    assert sid == request_span_id(tid, "fetch0")
    assert sid != request_span_id(tid, "fetch1")
    assert len(sid) == 16


# -- config + ambient plumbing ---------------------------------------------


def test_causal_config_validation():
    # The config only switches collection on: the slowest requests are
    # the timeline tail's, and the conservation tolerance is fixed.
    assert dataclasses.fields(CausalConfig) == ()
    with pytest.raises(TypeError):
        CausalConfig(64)


def test_ambient_config_and_collection():
    assert get_causal_config() is None
    cfg = CausalConfig()
    sections: list = []
    with use_causal(cfg):
        assert get_causal_config() is cfg
        with collect_causal(sections):
            result = _simulate(causal=None)  # picks up the ambient config
    assert get_causal_config() is None
    assert "causal" in result.sections
    assert sections == [result.sections["causal"]]


# -- collector: conservation + sections ------------------------------------


def _workload(n_requests=120):
    cluster = ClusterSpec(n_servers=5, bandwidth=1e8, client_bandwidth=1e15)
    pop = paper_fileset(30, size_mb=20, zipf_exponent=1.1, total_rate=8.0)
    policy = SPCachePolicy(pop, cluster, alpha=2e-7, seed=5)
    trace = poisson_trace(pop, n_requests=n_requests, seed=11)
    return trace, policy, cluster


def _simulate(causal=CausalConfig(), discipline="fifo", **overrides):
    trace, policy, cluster = _workload()
    config = SimulationConfig(
        discipline=discipline,
        jitter="deterministic",
        seed=23,
        observers=(causal,) if causal is not None else (),
        **overrides,
    )
    return simulate_reads(trace, policy, cluster, config)


def test_section_shape_and_conservation():
    result = _simulate()
    section = result.sections["causal"]
    assert section["scheme"] == "sp-cache"
    assert section["n_requests"] == result.n_requests
    conservation = section["conservation"]
    assert conservation["ok"]
    assert conservation["checked"] == result.n_requests
    assert conservation["max_rel_err"] <= 1e-9
    edges = section["edges"]
    total = (
        edges["queue_s"] + edges["service_s"]
        + edges["transfer_s"] + edges["join_s"]
    )
    skip = section["warmup_skipped"]
    assert edges["requests"] == result.n_requests - skip
    assert total == pytest.approx(
        float(result.latencies[skip:].sum()), rel=1e-9
    )
    assert json.loads(json.dumps(section)) == section  # JSON-able


def test_tail_exemplars_carry_trace_ids_and_conserve():
    trace, policy, cluster = _workload()
    config = SimulationConfig(
        discipline="fifo",
        jitter="deterministic",
        seed=23,
        observers=(TimelineConfig(), CausalConfig()),
    )
    sections = simulate_reads(trace, policy, cluster, config).sections
    section = sections["causal"]
    assert set(section) == {
        "schema_version", "scheme", "engine", "run_key", "n_requests",
        "n_servers", "warmup_skipped", "conservation", "edges",
    }
    exemplars = sections["timeline"]["tail"]["exemplars"]
    assert exemplars
    latencies = [e["latency_s"] for e in exemplars]
    assert latencies == sorted(latencies, reverse=True)
    for exemplar in exemplars:
        segments = sum(exemplar["components"].values())
        assert segments == pytest.approx(exemplar["latency_s"], rel=1e-9)
        assert exemplar["trace_id"] == request_trace_id(
            section["scheme"], section["engine"], exemplar["req"],
            section["run_key"],
        )


def test_causal_collection_does_not_perturb_results():
    plain = _simulate(causal=None)
    observed = _simulate()
    assert np.array_equal(observed.latencies, plain.latencies)
    assert np.array_equal(observed.server_bytes, plain.server_bytes)
    assert "causal" not in plain.sections and "causal" in observed.sections


def test_emit_spans_requires_finalize():
    collector = CausalCollector(
        CausalConfig(), n_servers=1, scheme="s", engine="e"
    )
    with pytest.raises(RuntimeError):
        collector.emit_spans(Tracer(RingBufferSink()))


# -- DAG reconstruction from traces ----------------------------------------


def _traced_run(**overrides):
    sink = RingBufferSink()
    with use_tracer(Tracer(sink)):
        result = _simulate(**overrides)
    return result, list(sink.records)


def test_trace_rebuild_matches_in_process_section():
    # warmup_fraction=0 because a rebuilt section spans every request
    # (the trace carries no warmup marker), while in-process edge
    # aggregation skips the configured warmup prefix.
    result, records = _traced_run(warmup_fraction=0.0)
    (section,) = causal_from_trace(records)
    assert section["scheme"] == result.sections["causal"]["scheme"]
    assert section["n_requests"] == result.sections["causal"]["n_requests"]
    assert section["reconstructed"] == result.sections["causal"]["n_requests"]
    assert section["dropped"] == 0
    assert section["conservation"]["ok"]
    for key in ("queue_s", "service_s", "transfer_s", "join_s"):
        assert section["edges"][key] == pytest.approx(
            result.sections["causal"]["edges"][key], rel=1e-9, abs=1e-12
        )


def test_span_forest_shapes_request_trees():
    result, records = _traced_run()
    roots = [
        r for r in span_forest(records) if r.get("name") == "request"
    ]
    assert len(roots) == result.n_requests
    for root in roots:
        names = sorted(c["name"] for c in root["children"])
        k = int(root["k"])
        assert names == sorted(["fetch"] * k + ["join"])
        assert sum(
            1 for c in root["children"]
            if c["name"] == "fetch" and c.get("critical")
        ) == 1
        for child in root["children"]:
            assert child["parent_id"] == root["span_id"]
            assert child["trace_id"] == root["trace_id"]


def test_span_forest_promotes_orphans():
    records = [
        {
            "event": "cspan", "name": "lost-child", "ts": 0.0,
            "span_id": "b" * 16, "parent_id": "f" * 16,
            "trace_id": "a" * 32,
        }
    ]
    (root,) = span_forest(records)
    assert root["name"] == "lost-child"


def test_causal_from_trace_drops_malformed_roots():
    records = [
        {
            "event": "cspan", "name": "request", "ts": 0.0,
            "span_id": "b" * 16, "parent_id": None, "trace_id": "a" * 32,
            "scheme": "s",  # no latency_s / k: malformed
        },
        {
            "event": "cspan", "name": "request", "ts": 0.0,
            "span_id": "c" * 16, "parent_id": None, "trace_id": "d" * 32,
            "scheme": "s", "latency_s": 1.0, "k": 0, "req": 0,
        },
        {
            "event": "cspan", "name": "request", "ts": 0.0,
            "span_id": "e" * 16, "parent_id": None, "trace_id": "e" * 32,
            "scheme": "s", "latency_s": 1.0, "k": None,  # k: not an int
        },
        {
            "event": "cspan", "name": "request", "ts": 0.0,
            "span_id": "1" * 16, "parent_id": None, "trace_id": "1" * 32,
            "scheme": "s", "latency_s": "slow", "k": 0,  # not a float
        },
        {
            "event": "cspan", "name": "request", "ts": 0.0,
            "span_id": "2" * 16, "parent_id": None, "trace_id": "2" * 32,
            "scheme": "s", "latency_s": 1.0, "k": 0,
        },
        {
            "event": "cspan", "name": "join", "ts": 1.0,  # no join_s
            "span_id": "3" * 16, "parent_id": "2" * 16, "trace_id": "2" * 32,
        },
    ]
    (section,) = causal_from_trace(records)
    assert section["dropped"] == 4
    assert section["n_requests"] == 1
    assert section["reconstructed"] == 0  # k=0 but the join is missing


def test_causal_from_trace_ignores_foreign_events():
    assert causal_from_trace([{"event": "mystery_event", "x": 1}]) == []


# -- rendering + chrome export ---------------------------------------------


def test_edge_and_chain_rows():
    section = _simulate().sections["causal"]
    rows = critical_edge_rows(section)
    assert [r["edge"] for r in rows] == [
        "queue", "service", "transfer", "join"
    ]
    assert sum(r["share_pct"] for r in rows) == pytest.approx(100.0)
    _result, records = _traced_run()
    (rebuilt,) = causal_from_trace(records)
    exemplar_rows = tail_exemplar_rows(rebuilt["exemplars"], top=3)
    assert len(exemplar_rows) == 3
    assert set(exemplar_rows[0]) == {
        "req", "file", "latency_s", "queue_s", "straggle_s",
        "transfer_s", "join_s", "k", "last_server", "flags", "trace",
    }
    slowest = rebuilt["exemplars"][0]
    assert exemplar_rows[0]["trace"] == slowest["trace_id"][:12]


def test_chrome_export_has_flow_pairs(tmp_path):
    _result, records = _traced_run()
    events = causal_chrome_events(records)
    spans = [e for e in events if e["ph"] == "X"]
    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    n_cspans = sum(1 for r in records if r.get("event") == "cspan")
    assert len(spans) == n_cspans
    assert len(starts) == len(finishes)
    # one flow pair per parent->child edge = every non-root span
    n_children = sum(
        1 for r in records
        if r.get("event") == "cspan" and r.get("parent_id") is not None
    )
    assert len(starts) == n_children
    out = tmp_path / "causal.json"
    assert write_causal_chrome_trace(records, out) == (n_cspans, 0)
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]
