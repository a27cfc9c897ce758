"""Hierarchical wall-clock spans: parent/child timing over tracer + registry.

A *span* times a block on the wall clock and knows its place in the call
tree: each span gets a process-unique ``span_id`` and records the id of
the span that was open when it started (``parent``).  The experiment
harness opens one root span per experiment, the control-plane sections it
reaches (the Algorithm 1 scale-factor search, Algorithm 2 repartition
planning, byte-store reads/writes) open child spans, and the resulting
forest is what run manifests (:mod:`repro.obs.runinfo`) and the
Chrome/Perfetto exporter (:func:`chrome_trace`) consume.

This module supersedes the removed flat profiling hooks (the old
``repro.obs.profiling``).  A finished span is reported three ways:

* a ``span.<name>.seconds`` histogram observation in the process-wide
  metrics registry (always on — labels deliberately do **not** become
  metric labels, so high-cardinality span labels cannot explode the
  registry);
* a :class:`SpanRecord` appended to every installed
  :class:`SpanCollector` (see :func:`collect_spans`) — how ``run_all``
  gathers per-span wall times without requiring a tracer;
* when tracing is enabled, one ``span`` event
  (:data:`repro.obs.events.SPAN`) carrying ``name``, ``span_id``,
  ``parent``, ``ts`` (start, ``time.perf_counter`` seconds) and
  ``wall_s`` — replayable into a tree with
  :func:`repro.obs.replay.span_tree`.

Caller-supplied labels that would collide with the reserved record fields
(``event``, ``ts``, ``name``, ``wall_s``, ``span_id``, ``parent``) are
namespaced to ``label_<key>`` instead of raising — the bug the old
``profiled`` hooks had.

Usage::

    with span("scale_search", mode="sweep"):
        ...

Simulated-time measurements do NOT belong here — those are events with
explicit ``ts`` stamps; spans measure real CPU seconds only.  The
simulator's per-request hot path is intentionally *not* spanned (the
disabled-tracing overhead budget of ``benchmarks/bench_obs_overhead.py``
covers that loop); spans wrap control-plane sections and whole runs.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.obs import events as ev
from repro.obs.metrics import get_registry
from repro.obs.tracing import Tracer, get_tracer

__all__ = [
    "RESERVED_SPAN_FIELDS",
    "SpanCollector",
    "SpanRecord",
    "chrome_trace",
    "collect_spans",
    "current_span_id",
    "sanitize_labels",
    "span",
    "write_chrome_trace",
]

#: Record fields owned by the span machinery; caller labels with these
#: names are renamed to ``label_<key>`` rather than raising ``TypeError``.
RESERVED_SPAN_FIELDS = frozenset(
    {"event", "ts", "name", "wall_s", "span_id", "parent"}
)

#: Wall-time buckets: 10 us .. ~10 s, finer than the latency default since
#: control-plane sections are usually sub-second.
WALL_BUCKETS = tuple(1e-5 * (10.0 ** (i / 3.0)) for i in range(19))

_next_span_id = itertools.count(1)
_local = threading.local()


def sanitize_labels(labels: dict[str, Any]) -> dict[str, Any]:
    """Namespace reserved keys so labels can never collide with span fields.

    ``{"name": "x", "k": 3}`` becomes ``{"label_name": "x", "k": 3}``.
    """
    return {
        (f"label_{k}" if k in RESERVED_SPAN_FIELDS else k): v
        for k, v in labels.items()
    }


def _span_stack() -> list[int]:
    stack = getattr(_local, "span_stack", None)
    if stack is None:
        stack = _local.span_stack = []
    return stack


def _collector_stack() -> list["SpanCollector"]:
    stack = getattr(_local, "collectors", None)
    if stack is None:
        stack = _local.collectors = []
    return stack


def current_span_id() -> int | None:
    """Id of the innermost open span on this thread (``None`` outside)."""
    stack = _span_stack()
    return stack[-1] if stack else None


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: identity, tree position, and wall time."""

    name: str
    span_id: int
    parent: int | None
    start: float  # time.perf_counter() seconds at entry
    wall_s: float
    labels: dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.wall_s

    def to_dict(self) -> dict[str, Any]:
        """Flat JSON-friendly form (what run manifests store)."""
        out: dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent": self.parent,
            "start": self.start,
            "wall_s": self.wall_s,
        }
        if self.labels:
            out["labels"] = dict(self.labels)
        return out


class SpanCollector:
    """Accumulate finished :class:`SpanRecord` objects in memory.

    Install with :func:`collect_spans`; collectors nest (every active
    collector sees every span), so ``run_all`` keeps one per experiment
    for the manifest plus one session-wide for the Chrome export.
    """

    def __init__(self) -> None:
        self.records: list[SpanRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        self.records.clear()

    def roots(self) -> list[SpanRecord]:
        """Records whose parent is not itself a collected span."""
        ids = {r.span_id for r in self.records}
        return [
            r for r in self.records if r.parent is None or r.parent not in ids
        ]

    def wall_by_name(self) -> dict[str, float]:
        """Total wall seconds per span name (sorted by name)."""
        totals: dict[str, float] = {}
        for r in self.records:
            totals[r.name] = totals.get(r.name, 0.0) + r.wall_s
        return dict(sorted(totals.items()))


@contextmanager
def collect_spans(collector: SpanCollector | None = None) -> Iterator[SpanCollector]:
    """Install ``collector`` (or a fresh one) for the block, on this thread."""
    collector = collector if collector is not None else SpanCollector()
    stack = _collector_stack()
    stack.append(collector)
    try:
        yield collector
    finally:
        stack.remove(collector)


@contextmanager
def span(
    name: str, /, *, tracer: Tracer | None = None, **labels: Any
) -> Iterator[int]:
    """Time a block as one span in the current tree; yields the span id.

    Reports to the registry (``span.<name>.seconds`` histogram), to every
    collector installed via :func:`collect_spans`, and — when tracing is
    enabled — to the tracer as one :data:`~repro.obs.events.SPAN` event.
    ``tracer`` overrides the process-wide tracer for this span only.
    """
    if not isinstance(name, str) or not name:
        raise TypeError("span name must be a non-empty string")
    sid = next(_next_span_id)
    stack = _span_stack()
    parent = stack[-1] if stack else None
    stack.append(sid)
    start = time.perf_counter()
    try:
        yield sid
    finally:
        wall = time.perf_counter() - start
        stack.pop()
        get_registry().histogram(
            f"span.{name}.seconds", buckets=WALL_BUCKETS
        ).observe(wall)
        collectors = _collector_stack()
        clean = sanitize_labels(labels)
        if collectors:
            record = SpanRecord(
                name=name,
                span_id=sid,
                parent=parent,
                start=start,
                wall_s=wall,
                labels=clean,
            )
            for collector in collectors:
                collector.records.append(record)
        t = tracer if tracer is not None else get_tracer()
        if t.enabled:
            t.event(
                ev.SPAN,
                ts=start,
                name=name,
                span_id=sid,
                parent=parent,
                wall_s=wall,
                **clean,
            )


# -- Chrome/Perfetto trace-event export ---------------------------------------

def _as_span_dicts(source: Any) -> list[dict[str, Any]]:
    """Normalize collectors, records, or trace events to span dicts."""
    if isinstance(source, SpanCollector):
        source = source.records
    out: list[dict[str, Any]] = []
    for item in source:
        if isinstance(item, SpanRecord):
            d = item.to_dict()
            d["labels"] = dict(item.labels)
            out.append(d)
            continue
        kind = item.get("event")
        if kind == ev.SPAN:
            labels = {
                k: v
                for k, v in item.items()
                if k not in ("event", "ts", "name", "span_id", "parent", "wall_s")
            }
            out.append(
                {
                    "name": item.get("name", "?"),
                    "span_id": item.get("span_id"),
                    "parent": item.get("parent"),
                    "start": float(item.get("ts", 0.0)),
                    "wall_s": float(item.get("wall_s", 0.0)),
                    "labels": labels,
                }
            )
        elif kind is None and "name" in item and "wall_s" in item:
            # manifest span dicts (a trace record of another kind, such
            # as an older build's ``profile``, is no span)
            out.append(
                {
                    "name": item["name"],
                    "span_id": item.get("span_id"),
                    "parent": item.get("parent"),
                    "start": float(item.get("start", 0.0)),
                    "wall_s": float(item["wall_s"]),
                    "labels": dict(item.get("labels", {})),
                }
            )
    return out


def chrome_trace(
    source: Any,
    process_name: str = "repro",
    extra_events: list[dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """Convert spans to the Chrome trace-event JSON format.

    ``source`` may be a :class:`SpanCollector`, an iterable of
    :class:`SpanRecord` / span dicts, or replayed trace events (``span``
    records).  Each span becomes one complete
    ("X"-phase) event with microsecond timestamps, so the output loads
    directly in ``chrome://tracing`` and https://ui.perfetto.dev.

    ``extra_events`` appends preformatted trace events verbatim — e.g.
    the counter ("C"-phase) series from
    :func:`repro.obs.timeline.chrome_counter_events`, which live on
    their own pid so sim-time counters never shear the wall-clock spans.
    """
    spans = _as_span_dicts(source)
    trace_events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    for s in spans:
        args: dict[str, Any] = dict(s.get("labels") or {})
        if s.get("span_id") is not None:
            args["span_id"] = s["span_id"]
        if s.get("parent") is not None:
            args["parent"] = s["parent"]
        trace_events.append(
            {
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "name": s["name"],
                "cat": "span",
                "ts": s["start"] * 1e6,  # perf_counter seconds -> microseconds
                "dur": max(s["wall_s"], 0.0) * 1e6,
                "args": args,
            }
        )
    if extra_events:
        trace_events.extend(extra_events)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    source: Any,
    path: str | Path,
    process_name: str = "repro",
    extra_events: list[dict[str, Any]] | None = None,
) -> int:
    """Write :func:`chrome_trace` output to ``path``; returns the span count."""
    doc = chrome_trace(
        source, process_name=process_name, extra_events=extra_events
    )
    Path(path).write_text(json.dumps(doc), encoding="utf-8")
    return sum(1 for e in doc["traceEvents"] if e["ph"] == "X")
