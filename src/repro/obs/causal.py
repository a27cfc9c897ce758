"""Causal request tracing: trace-context propagation + critical-path analysis.

The timelines of :mod:`repro.obs.timeline` answer *that* stragglers or
queueing dominated a run; this module answers "why was *this* request
slow, and which partition/server/operation was on its critical path?".
Three cooperating pieces:

**Trace context** — :class:`TraceContext` carries Dapper-style
``(trace_id, span_id, parent_id)`` identity through a
:class:`contextvars.ContextVar`, so no data-plane signature carries it.
:func:`causal_span` opens one child span for the block and emits one
``cspan`` trace event (:data:`repro.obs.events.CSPAN`) on exit; the
whole store data plane (``store_client`` get/put → ``master``
lookup/placement → ``worker`` read/write/evict → ``lineage`` recovery)
is instrumented with it.  The disabled path is one ``tracer.enabled``
check — free, like every other hook in :mod:`repro.obs`.

**Engine span trees** — a :class:`CausalCollector` reads the run's
:class:`~repro.obs.timeline.PartitionLog`, the one record buffer it
shares with :class:`~repro.obs.timeline.TimelineCollector`, so every
discipline (``fifo``/``ps``/``limited``) feeds it for free, at any
batch size.  Span identity is *deterministic*: the trace id is a
hash of ``(scheme, engine, run key, request)`` and span ids hash the
role within the tree, so two runs of the same workload — an engine and
its per-request oracle, or two batch sizes — produce byte-identical
causal DAGs (the parity property
``tests/test_cluster/test_causal_parity.py`` pins down).  When tracing
is enabled, :meth:`CausalCollector.emit_spans` emits the full span tree
of every request — one ``request`` root, ``k`` ``fetch`` children, one
``join`` child — as ``cspan`` events alongside READ/READ_DONE.

**Critical path** — for a fork-join request the critical path is the
max-latency chain across its ``k`` partition fetches: the fetch whose
*reported* completion fired the join.  Its edges:

* ``queue``    — waiting for the serving NIC (``start - arrival``);
* ``service``  — bytes on the wire (``end - start``);
* ``transfer`` — the straggler report delay reaching the join
  (``reported - end``);
* ``join``     — the residual: post-join decode plus any miss penalty
  (``latency - queue - service - transfer``).

The per-request record of the slowest requests is the timeline tail:
each exemplar carries its ``trace_id`` and splits the same chain under
other names — its ``queueing``, ``transfer`` and ``straggling`` are
``queue``, ``service`` and ``transfer`` here, and ``join`` is ``join``.
The causal section holds what is its own: the per-edge totals over the
steady-state requests (``edges``) and the conservation check.

Because ``join`` is defined as the residual, the **conservation
invariant** — critical-path segment sum equals the end-to-end latency —
holds by construction; :meth:`CausalCollector.finalize` re-adds the
segments and records the worst relative error (float re-addition noise,
orders of magnitude under :data:`CONSERVATION_TOLERANCE`), and
:func:`causal_from_trace` re-verifies the invariant from the JSON floats
of a replayed trace, rebuilding the slowest requests as tail exemplars.
Sections land in run manifests, render through ``repro critical``, feed
the ``repro dash`` edge-type panel, and export as Chrome/Perfetto span
trees with parent/child flow events (:func:`causal_chrome_events`).
"""

from __future__ import annotations

import itertools
import time
from contextlib import AbstractContextManager, contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from hashlib import blake2b
from typing import Any, Iterator

import numpy as np

from repro.obs import events as ev
from repro.obs.replay import _forest
from repro.obs.sections import Channel, Observer, RunEnd
from repro.obs.tracing import Tracer, get_tracer

__all__ = [
    "CAUSAL",
    "CAUSAL_SCHEMA_VERSION",
    "CausalCollector",
    "CausalConfig",
    "TraceContext",
    "causal_chrome_events",
    "causal_from_trace",
    "causal_span",
    "collect_causal",
    "critical_edge_rows",
    "get_causal_config",
    "new_span_id",
    "new_trace_id",
    "publish_causal",
    "request_span_id",
    "request_trace_id",
    "span_forest",
    "use_causal",
    "write_causal_chrome_trace",
]

#: Version of the causal *section* layout (independent of the manifest
#: schema version, which gates the envelope).
CAUSAL_SCHEMA_VERSION = 2

#: The four critical-path edge types, in chain order.
EDGE_TYPES = ("queue", "service", "transfer", "join")

#: The tail exemplar component each edge type is, in the same order.
EDGE_COMPONENTS = ("queueing_s", "transfer_s", "straggling_s", "join_s")

#: The relative error the conservation check accepts.
CONSERVATION_TOLERANCE = 1e-9

#: ``cspan`` record fields owned by the span machinery; caller attrs with
#: these names are namespaced to ``attr_<key>`` rather than raising.
RESERVED_CSPAN_FIELDS = frozenset(
    {"event", "ts", "name", "trace_id", "span_id", "parent_id", "wall_s"}
)


# -- trace context ---------------------------------------------------------


@dataclass(frozen=True)
class TraceContext:
    """One position in a causal tree: trace + span + parent identity.

    ``trace_id`` is 32 lowercase hex chars, ``span_id`` 16 (the W3C
    trace-context field widths).  ``parent_id`` is ``None`` at a tree
    root.
    """

    trace_id: str
    span_id: str
    parent_id: str | None = None

    def __post_init__(self) -> None:
        _check_hex("trace_id", self.trace_id, 32)
        _check_hex("span_id", self.span_id, 16)
        if self.parent_id is not None:
            _check_hex("parent_id", self.parent_id, 16)

    def child(self, span_id: str | None = None) -> "TraceContext":
        """A child context: same trace, new span, this span as parent."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=span_id if span_id is not None else new_span_id(),
            parent_id=self.span_id,
        )


def _not_hex(s: str) -> bool:
    return any(c not in "0123456789abcdef" for c in s)


def _check_hex(field: str, value: str, width: int) -> None:
    if (
        not isinstance(value, str)
        or len(value) != width
        or _not_hex(value)
        or value == "0" * width
    ):
        raise ValueError(
            f"{field} must be {width} lowercase hex chars (not all-zero), "
            f"got {value!r}"
        )


_ids = itertools.count(1)


def new_trace_id() -> str:
    """A process-unique 32-hex trace id (store-plane roots)."""
    return f"{next(_ids):032x}"


def new_span_id() -> str:
    """A process-unique 16-hex span id."""
    return f"{next(_ids):016x}"


def request_trace_id(
    scheme: str, engine: str, req: int, run_key: str = ""
) -> str:
    """The *deterministic* trace id of one simulated request.

    A hash of ``(scheme, engine, run key, request index)``, so identical
    seeded runs — whatever their batch size — produce identical causal
    DAG identities.  The
    ``run_key`` is the run's workload fingerprint
    (:attr:`~repro.obs.timeline.PartitionLog.run_key`: arrivals, file
    ids, latencies): it keeps ids distinct when one process simulates
    the same scheme several times (e.g. a load sweep), which would
    otherwise collide trees in the trace.
    """
    return blake2b(
        f"{scheme}|{engine}|{run_key}|{req}".encode(), digest_size=16
    ).hexdigest()


def request_span_id(trace_id: str, role: str) -> str:
    """Deterministic span id for ``role`` within a request's span tree.

    Roles: ``"request"`` (root), ``"fetch<pos>"`` (one per partition),
    ``"join"``.
    """
    return blake2b(
        f"{trace_id}:{role}".encode(), digest_size=8
    ).hexdigest()


_ctx: ContextVar[TraceContext | None] = ContextVar(
    "repro_causal_context", default=None
)


class _NoSpan:
    """What :func:`causal_span` returns while tracing is off: enters to
    ``None`` and does nothing else."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NO_SPAN = _NoSpan()


def causal_span(
    name: str, /, *, tracer: Tracer | None = None, **attrs: Any
) -> AbstractContextManager[TraceContext | None]:
    """One causal span: opens a child context, emits a ``cspan`` on exit.

    With no ambient context a fresh trace is rooted; nested spans chain
    ``parent_id`` automatically through the :class:`~contextvars.ContextVar`
    (which asyncio tasks and thread-pool executors copy, so the
    propagation keeps working when the store goes concurrent).  The
    emitted record carries ``trace_id``/``span_id``/``parent_id``,
    ``wall_s``, and the caller's ``attrs`` (reserved names are renamed
    to ``attr_<key>``).  Disabled tracing skips everything — one
    ``enabled`` check returns one shared no-op context manager, with no
    context mutation.
    """
    t = tracer if tracer is not None else get_tracer()
    if not t.enabled:
        return _NO_SPAN
    return _causal_span(t, name, attrs)


@contextmanager
def _causal_span(
    t: Tracer, name: str, attrs: dict[str, Any]
) -> Iterator[TraceContext]:
    parent = _ctx.get()
    if parent is None:
        ctx = TraceContext(new_trace_id(), new_span_id(), None)
    else:
        ctx = parent.child()
    token = _ctx.set(ctx)
    start = time.perf_counter()
    try:
        yield ctx
    finally:
        _ctx.reset(token)
        clean = {
            (f"attr_{k}" if k in RESERVED_CSPAN_FIELDS else k): v
            for k, v in attrs.items()
        }
        t.event(
            ev.CSPAN,
            ts=start,
            name=name,
            trace_id=ctx.trace_id,
            span_id=ctx.span_id,
            parent_id=ctx.parent_id,
            wall_s=time.perf_counter() - start,
            **clean,
        )


# -- run configuration -----------------------------------------------------


@dataclass(frozen=True)
class CausalConfig:
    """Turns one run's causal collection on; it has no knobs (the
    slowest requests are the timeline tail's)."""


# -- the collector ---------------------------------------------------------


class CausalCollector(Observer):
    """Critical-path edges from the run's partition log
    (:class:`~repro.obs.timeline.PartitionLog`).

    The log is the one :class:`~repro.obs.timeline.TimelineCollector`
    reads, and its critical-path split is this collector's edges.
    :meth:`finalize` verifies the conservation invariant and returns a
    JSON-able section; :meth:`emit_spans` (call after finalize, only
    when tracing) emits the full per-request span trees as ``cspan``
    events with deterministic ids.
    """

    records = True
    run_fields = ("n_servers", "scheme", "engine", "tracer")

    def __init__(
        self,
        config: CausalConfig,
        *,
        n_servers: int,
        scheme: str,
        engine: str,
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config
        self.n_servers = int(n_servers)
        self.scheme = scheme
        self.engine = engine
        self.tracer = tracer
        #: The finished run, kept by finalize for :meth:`emit_spans`.
        self._end: RunEnd | None = None

    def finish(self, end: RunEnd) -> dict[str, Any]:
        section = self.finalize(end)
        if self.tracer is not None and self.tracer.enabled:
            self.emit_spans(self.tracer)
        return section

    def finalize(self, end: RunEnd) -> dict[str, Any]:
        """Edge totals + conservation check, as one JSON-able section.

        Deterministic by construction: the log is lexsorted by
        ``(request, partition)`` before any arithmetic, so frames recorded
        in any order and grouping produce identical sections.
        """
        latencies = np.asarray(end.latencies, dtype=np.float64)
        n_req = int(latencies.size)
        log = end.log.split(end.times, end.file_ids, latencies)
        self._end = end
        segments = (log.queue, log.service, log.transfer, log.join)

        # Conservation: re-add the segments and compare against the
        # end-to-end latency.  ``join`` is the residual, so the only
        # error is float re-addition noise (a few ulp).
        total = log.queue + log.service + log.transfer + log.join
        denom = np.maximum(np.abs(latencies), 1e-300)
        rel = np.abs(total - latencies) / denom
        max_rel = float(rel.max()) if n_req else 0.0

        skip = int(n_req * end.warmup_fraction)
        edges = {
            f"{edge}_s": float(seg[skip:].sum())
            for edge, seg in zip(EDGE_TYPES, segments)
        }
        return {
            "schema_version": CAUSAL_SCHEMA_VERSION,
            "scheme": self.scheme,
            "engine": self.engine,
            "run_key": log.run_key,
            "n_requests": n_req,
            "n_servers": self.n_servers,
            "warmup_skipped": skip,
            "conservation": _conservation(n_req, max_rel),
            "edges": {**edges, "requests": int(n_req - skip)},
        }

    def emit_spans(self, tracer: Tracer) -> int:
        """Emit every request's span tree as ``cspan`` events.

        Call after :meth:`finalize` with an enabled tracer.  Timestamps
        are simulated seconds; ids are the deterministic
        :func:`request_trace_id` / :func:`request_span_id` family, so two
        traces of one workload carry identical DAGs.
        Returns the number of events emitted.
        """
        if self._end is None:
            raise RuntimeError("emit_spans requires finalize() first")
        if not tracer.enabled:
            return 0
        end = self._end
        log = end.log
        event = tracer.event
        n = 0
        for r in range(int(end.latencies.size)):
            tid = request_trace_id(self.scheme, self.engine, r, log.run_key)
            root = request_span_id(tid, "request")
            arrival = float(end.times[r])
            latency = float(end.latencies[r])
            crit = int(log.crit_pos[r])
            lo, hi = int(log.blk_lo[r]), int(log.blk_hi[r])
            event(
                ev.CSPAN,
                ts=arrival,
                name="request",
                trace_id=tid,
                span_id=root,
                parent_id=None,
                scheme=self.scheme,
                engine=self.engine,
                run_key=log.run_key,
                req=r,
                file_id=int(end.file_ids[r]),
                latency_s=latency,
                k=hi - lo,
                crit=crit,
                missed=bool(log.missed[r]),
                straggled=bool(log.straggled[r]),
            )
            n += 1
            for row in range(lo, hi):
                p = int(log.pos[row])
                event(
                    ev.CSPAN,
                    ts=float(log.start[row]),
                    name="fetch",
                    trace_id=tid,
                    span_id=request_span_id(tid, f"fetch{p}"),
                    parent_id=root,
                    scheme=self.scheme,
                    req=r,
                    pos=p,
                    server=int(log.server[row]),
                    bytes=float(log.size[row]),
                    queue_s=float(log.start[row] - arrival),
                    service_s=float(log.end[row] - log.start[row]),
                    transfer_s=float(log.extra[row]),
                    critical=bool(p == crit),
                )
                n += 1
            join_s = float(log.join[r])
            event(
                ev.CSPAN,
                ts=arrival + latency - join_s,
                name="join",
                trace_id=tid,
                span_id=request_span_id(tid, "join"),
                parent_id=root,
                scheme=self.scheme,
                req=r,
                join_s=join_s,
            )
            n += 1
        return n


# -- ambient config + section sinks (see repro.obs.sections) ----------------

#: The causal :class:`~repro.obs.sections.Channel`.
CAUSAL = Channel(
    "causal", "causal", CausalConfig, "scheme", observer=CausalCollector
)
get_causal_config = CAUSAL.current
use_causal = CAUSAL.use
collect_causal = CAUSAL.collect
publish_causal = CAUSAL.publish


# -- DAG reconstruction from traces ---------------------------------------


def _conservation(checked: int, max_rel: float) -> dict[str, Any]:
    return {
        "checked": checked,
        "max_rel_err": max_rel,
        "tolerance": CONSERVATION_TOLERANCE,
        "ok": bool(max_rel <= CONSERVATION_TOLERANCE),
    }


def span_forest(source) -> list[dict[str, Any]]:
    """Rebuild causal span trees from ``cspan`` events.

    Returns the root nodes; every node is the original record plus a
    ``children`` list.  A node whose ``parent_id`` never appears is
    promoted to a root (a trace started mid-run), matching the tolerant
    behaviour of :func:`repro.obs.replay.span_tree`.
    """
    return _forest(source, ev.CSPAN, "parent_id", str)


def _trace_exemplar(root: dict[str, Any]) -> tuple[dict[str, Any], bool]:
    """One ``request`` tree as a tail exemplar (its scalar fields: the
    trace carries no goodput), and whether the tree came back whole
    (all ``k`` fetches, the join, and a critical fetch).  Raises
    ``TypeError``/``ValueError``/``KeyError`` on a field that does not
    parse."""
    k = int(root["k"])
    latency = float(root["latency_s"])
    fetches = [c for c in root["children"] if c.get("name") == "fetch"]
    joins = [c for c in root["children"] if c.get("name") == "join"]
    crit = next((c for c in fetches if c.get("critical")), None)
    queue = service = transfer = 0.0
    server = -1
    if crit is not None:
        queue = float(crit.get("queue_s", 0.0))
        service = float(crit.get("service_s", 0.0))
        transfer = float(crit.get("transfer_s", 0.0))
        server = int(crit.get("server", -1))
    join = float(joins[0]["join_s"]) if joins else 0.0
    complete = (
        len(fetches) == k and len(joins) == 1 and (crit is not None or k == 0)
    )
    exemplar = {
        "req": int(root.get("req", -1)),
        "trace_id": str(root.get("trace_id", "?")),
        "file_id": int(root.get("file_id", -1)),
        "arrival_s": float(root.get("ts", 0.0)),
        "latency_s": latency,
        "parallelism": k,
        "missed": bool(root.get("missed", False)),
        "straggled": bool(root.get("straggled", False)),
        "last_server": server,
        "components": {
            "queueing_s": queue,
            "straggling_s": transfer,
            "transfer_s": service,
            "join_s": join,
        },
    }
    return exemplar, complete


def causal_from_trace(source) -> list[dict[str, Any]]:
    """Reconstruct per-request causal DAGs from a JSONL trace.

    Groups engine ``cspan`` trees (``request`` roots with ``fetch`` /
    ``join`` children) per run — by the roots' ``scheme``, ``engine``
    and ``run_key``, so a sweep's load points stay apart — recomputes
    each request's critical chain from the *replayed JSON floats*, and
    re-verifies the conservation invariant.  Returns one section per
    run, ordered by scheme and engine and then as the runs appear in
    the trace, shaped like :meth:`CausalCollector.finalize` output plus
    reconstruction accounting — ``reconstructed`` counts requests whose
    full span tree (root, all ``k`` fetches, join, and a critical fetch)
    came back — and every request as a tail exemplar (``exemplars``,
    slowest first; see :func:`~repro.obs.timeline.tail_exemplar_rows`).

    Replay is tolerant: unknown event kinds are ignored (they are not
    ``cspan``), and a ``request`` tree whose fields are missing or do
    not parse counts under ``dropped`` instead of raising.
    """
    per_run: dict[tuple[str, str, str], list[tuple[dict[str, Any], bool]]] = {}
    dropped = 0
    for root in span_forest(source):
        if root.get("name") != "request":
            continue  # store-plane / foreign trees have their own roots
        try:
            parsed = _trace_exemplar(root)
        except (TypeError, ValueError, KeyError):
            dropped += 1
            continue
        run = (
            str(root.get("scheme", "?")),
            str(root.get("engine", "?")),
            str(root.get("run_key", "")),
        )
        per_run.setdefault(run, []).append(parsed)

    sections: list[dict[str, Any]] = []
    for run in sorted(per_run, key=lambda run: run[:2]):
        scheme, engine, run_key = run
        reqs = per_run[run]
        n_req = len(reqs)
        max_rel = 0.0
        sums = [0.0] * len(EDGE_TYPES)
        for exemplar, _ in reqs:
            segments = [exemplar["components"][c] for c in EDGE_COMPONENTS]
            latency = exemplar["latency_s"]
            rel = abs(sum(segments) - latency) / max(abs(latency), 1e-300)
            max_rel = max(max_rel, rel)
            sums = [a + b for a, b in zip(sums, segments)]
        edges = {f"{e}_s": v for e, v in zip(EDGE_TYPES, sums)}
        exemplars = [exemplar for exemplar, _ in reqs]
        exemplars.sort(key=lambda e: -e["latency_s"])
        sections.append(
            {
                "schema_version": CAUSAL_SCHEMA_VERSION,
                "scheme": scheme,
                "engine": engine,
                "run_key": run_key,
                "n_requests": n_req,
                "warmup_skipped": 0,
                "reconstructed": sum(complete for _, complete in reqs),
                "dropped": dropped,
                "conservation": _conservation(n_req, max_rel),
                "edges": {**edges, "requests": n_req},
                "exemplars": exemplars,
            }
        )
    return sections


# -- rendering helpers -----------------------------------------------------


def _share_rows(
    key: str, seconds: dict[str, float], total: float | None = None
) -> list[dict[str, Any]]:
    """``key``/seconds/share_pct rows of named seconds, each a share of
    ``total`` (default: their sum)."""
    if total is None:
        total = sum(seconds.values())
    return [
        {
            key: name,
            "seconds": value,
            "share_pct": 100.0 * value / total if total else 0.0,
        }
        for name, value in seconds.items()
    ]


def critical_edge_rows(section: dict[str, Any]) -> list[dict[str, Any]]:
    """Edge-type/seconds/share rows of one section's aggregation."""
    edges = section.get("edges") or {}
    return _share_rows(
        "edge", {e: float(edges.get(f"{e}_s", 0.0)) for e in EDGE_TYPES}
    )


# -- Chrome trace export with flow events ----------------------------------


def _flow_id(span_id: str) -> int:
    try:
        return int(str(span_id), 16) & 0x7FFFFFFF
    except ValueError:
        return abs(hash(span_id)) & 0x7FFFFFFF


def _span_duration(node: dict[str, Any]) -> float:
    if "latency_s" in node:
        return float(node["latency_s"])
    if "service_s" in node:
        return float(node["service_s"]) + float(node.get("transfer_s", 0.0))
    if "join_s" in node:
        return float(node["join_s"])
    return float(node.get("wall_s", 0.0))


def _tree_events(root: dict[str, Any], pid: int, tid: int) -> list[dict[str, Any]]:
    """The "X" events and flow pairs of one span tree.  Raises
    ``TypeError``/``ValueError`` on a time field that does not parse."""
    events: list[dict[str, Any]] = []
    stack = [root]
    while stack:
        node = stack.pop()
        ts_us = float(node.get("ts", 0.0)) * 1e6
        dur_us = max(_span_duration(node), 0.0) * 1e6
        args = {
            k: v
            for k, v in node.items()
            if k not in ("children", "event", "ts") and v is not None
        }
        events.append(
            {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "name": str(node.get("name", "?")),
                "cat": "causal",
                "ts": ts_us,
                "dur": dur_us,
                "args": args,
            }
        )
        for child in node["children"]:
            fid = _flow_id(str(child.get("span_id", "0")))
            child_ts = float(child.get("ts", 0.0)) * 1e6
            events.append(
                {
                    "ph": "s",
                    "pid": pid,
                    "tid": tid,
                    "name": "causes",
                    "cat": "causal",
                    "id": fid,
                    "ts": ts_us,
                }
            )
            events.append(
                {
                    "ph": "f",
                    "pid": pid,
                    "tid": tid,
                    "name": "causes",
                    "cat": "causal",
                    "id": fid,
                    "bp": "e",
                    "ts": child_ts,
                }
            )
            stack.append(child)
    return events


def _chrome_events(
    source, pid: int, max_tracks: int
) -> tuple[list[dict[str, Any]], int]:
    """:func:`causal_chrome_events` plus the number of trees it dropped."""
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "pid": pid,
            "tid": 1,
            "name": "process_name",
            "args": {"name": "repro.causal"},
        }
    ]
    rendered = dropped = 0
    for root in span_forest(source):
        try:
            tree = _tree_events(root, pid, (rendered % max_tracks) + 1)
        except (TypeError, ValueError):
            dropped += 1
            continue
        events.extend(tree)
        rendered += 1
    return events, dropped


def causal_chrome_events(
    source, pid: int = 3, max_tracks: int = 32
) -> list[dict[str, Any]]:
    """Chrome trace events of causal span trees, with flow binding.

    Every span becomes an "X" event (timestamps in the span's own clock
    — simulated seconds for engine trees, ``perf_counter`` for store
    spans — scaled to microseconds), and every parent→child edge
    becomes an "s"/"f" flow pair so Perfetto draws the causal arrows.
    Trees round-robin over ``max_tracks`` thread lanes to stay legible.
    A tree with a time field that does not parse is left out whole, as
    :func:`causal_from_trace` drops it from the text view.
    """
    return _chrome_events(source, pid, max_tracks)[0]


def write_causal_chrome_trace(source, path) -> tuple[int, int]:
    """Write causal span trees as a Chrome trace file; returns the span
    count and the number of trees left out because a field did not parse."""
    import json
    from pathlib import Path

    events, dropped = _chrome_events(source, pid=3, max_tracks=32)
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    Path(path).write_text(json.dumps(doc), encoding="utf-8")
    return sum(1 for e in events if e["ph"] == "X"), dropped
