"""Hierarchical spans: tree structure, labels, collectors, Chrome export."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    RingBufferSink,
    SpanCollector,
    Tracer,
    chrome_trace,
    collect_spans,
    current_span_id,
    get_registry,
    span,
    use_tracer,
    write_chrome_trace,
)
from repro.obs.spans import RESERVED_SPAN_FIELDS, sanitize_labels


def test_nested_spans_record_parent_ids():
    with collect_spans() as collector:
        with span("outer") as outer_id:
            with span("inner") as inner_id:
                pass
            with span("inner") as second_id:
                pass
    by_id = {r.span_id: r for r in collector.records}
    assert by_id[inner_id].parent == outer_id
    assert by_id[second_id].parent == outer_id
    assert by_id[outer_id].parent is None
    assert inner_id != second_id
    assert [r.span_id for r in collector.roots()] == [outer_id]


def test_current_span_id_tracks_stack():
    assert current_span_id() is None
    with span("a") as a:
        assert current_span_id() == a
        with span("b") as b:
            assert current_span_id() == b
        assert current_span_id() == a
    assert current_span_id() is None


def test_span_stack_unwinds_on_exception():
    with pytest.raises(RuntimeError):
        with span("doomed"):
            raise RuntimeError("boom")
    assert current_span_id() is None


def test_span_durations_cover_children():
    with collect_spans() as collector:
        with span("parent"):
            with span("child"):
                pass
    by_name = {r.name: r for r in collector.records}
    parent, child = by_name["parent"], by_name["child"]
    assert child.wall_s >= 0 and parent.wall_s >= 0
    assert parent.start <= child.start
    assert parent.end >= child.end


def test_span_observes_registry_histogram():
    with span("timed_section"):
        pass
    hist = get_registry().snapshot()["span.timed_section.seconds"]
    assert hist["count"] == 1
    assert hist["sum"] >= 0


def test_reserved_labels_are_namespaced_not_fatal():
    # The old flat profiling hooks raised TypeError for labels named
    # name/ts/wall_s; the span API must accept and namespace them.
    with collect_spans() as collector:
        with span("inner", name="evil", ts=1, wall_s=2, ok=3):
            pass
    (record,) = collector.records
    assert record.labels == {
        "label_name": "evil", "label_ts": 1, "label_wall_s": 2, "ok": 3
    }


def test_sanitize_labels_covers_every_reserved_field():
    labels = {k: 1 for k in RESERVED_SPAN_FIELDS} | {"plain": 2}
    clean = sanitize_labels(labels)
    assert set(clean) == {f"label_{k}" for k in RESERVED_SPAN_FIELDS} | {"plain"}


def test_reserved_labels_flow_through_tracer():
    sink = RingBufferSink()
    with use_tracer(Tracer(sink)):
        with span("s", name="clash", wall_s="clash"):
            pass
    (record,) = sink.records
    assert record["event"] == "span"
    assert record["name"] == "s"
    assert record["label_name"] == "clash"
    assert record["label_wall_s"] == "clash"
    assert record["wall_s"] >= 0


def test_span_name_must_be_string():
    with pytest.raises(TypeError):
        with span(""):
            pass


def test_collectors_nest_and_both_see_spans():
    outer, inner = SpanCollector(), SpanCollector()
    with collect_spans(outer):
        with span("only_outer"):
            pass
        with collect_spans(inner):
            with span("both"):
                pass
    assert [r.name for r in outer.records] == ["only_outer", "both"]
    assert [r.name for r in inner.records] == ["both"]
    assert outer.wall_by_name().keys() == {"only_outer", "both"}


def test_chrome_trace_structure():
    with collect_spans() as collector:
        with span("root", phase="demo"):
            with span("leaf"):
                pass
    doc = chrome_trace(collector, process_name="unit-test")
    assert isinstance(doc["traceEvents"], list)
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(xs) == 2
    for e in xs:
        assert e["ts"] >= 0 and e["dur"] >= 0
        assert e["cat"] == "span"
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    assert meta[0]["args"]["name"] == "unit-test"
    leaf = next(e for e in xs if e["name"] == "leaf")
    root = next(e for e in xs if e["name"] == "root")
    assert leaf["args"]["parent"] == root["args"]["span_id"]
    assert root["args"]["phase"] == "demo"


def test_write_chrome_trace_roundtrips_valid_json(tmp_path):
    with collect_spans() as collector:
        with span("a"):
            pass
        with span("b"):
            pass
    out = tmp_path / "trace.json"
    assert write_chrome_trace(collector, out) == 2
    doc = json.loads(out.read_text())
    assert {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"} == {"a", "b"}


def test_chrome_trace_from_replayed_events():
    sink = RingBufferSink()
    with use_tracer(Tracer(sink)):
        with span("traced", k=2):
            pass
    doc = chrome_trace(sink.records)
    (x,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert x["name"] == "traced"
    assert x["args"]["k"] == 2


def test_legacy_profiling_shim_is_removed():
    # The deprecated repro.obs.profiling shim and its profiled/profile
    # aliases are gone; span replaces them.
    with pytest.raises(ModuleNotFoundError):
        import repro.obs.profiling  # noqa: F401

    import repro.obs as obs

    assert not hasattr(obs, "profiled") and not hasattr(obs, "profile")
