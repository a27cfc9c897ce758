"""Causal request tracing: trace-context propagation + critical-path analysis.

The timelines of :mod:`repro.obs.timeline` answer *that* stragglers or
queueing dominated a run; this module answers "why was *this* request
slow, and which partition/server/operation was on its critical path?".
Three cooperating pieces:

**Trace context** — :class:`TraceContext` carries Dapper-style
``(trace_id, span_id, parent_id)`` identity through a
:class:`contextvars.ContextVar`, with W3C-traceparent serialization
(``00-<32 hex>-<16 hex>-01``) so the propagation rules survive the
planned move of :mod:`repro.store` to asyncio/thread-pool serving.
:func:`causal_span` opens one child span for the block and emits one
``cspan`` trace event (:data:`repro.obs.events.CSPAN`) on exit; the
whole store data plane (``store_client`` get/put → ``master``
lookup/placement → ``worker`` read/write/evict → ``lineage`` recovery)
is instrumented with it.  The disabled path is one ``tracer.enabled``
check — free, like every other hook in :mod:`repro.obs`.

**Engine span trees** — a :class:`CausalCollector` rides inside
:class:`~repro.cluster.engine.lifecycle.RequestLifecycle` with the same
buffer-only hook API as :class:`~repro.obs.timeline.TimelineCollector`,
so every discipline (``fifo``/``ps``/``limited``) and both planning
paths (scalar and :class:`~repro.cluster.engine.batch.BatchPlanner`)
feed it for free.  Span identity is *deterministic*: the trace id is a
hash of ``(scheme, engine, request)`` and span ids hash the role within
the tree, so a scalar and a batched run of the same workload produce
byte-identical causal DAGs (the parity property
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

Because ``join`` is defined as the residual, the **conservation
invariant** — critical-path segment sum equals the end-to-end latency —
holds by construction; :meth:`CausalCollector.finalize` re-adds the
segments and records the worst relative error (float re-addition noise,
orders of magnitude under the 1e-9 tolerance), and
:func:`causal_from_trace` re-verifies the invariant from the JSON floats
of a replayed trace.  Sections land in schema-v6 run manifests, render
through ``repro critical``, feed the ``repro dash`` edge-type panel,
and export as Chrome/Perfetto span trees with parent/child flow events
(:func:`causal_chrome_events`).
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from contextvars import ContextVar, Token
from dataclasses import dataclass
from hashlib import blake2b
from typing import Any, Iterator

import numpy as np

from repro.obs import events as ev
from repro.obs.replay import load_events
from repro.obs.sections import Channel
from repro.obs.timeline import PartitionRecorder
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
    "critical_chain_rows",
    "critical_edge_rows",
    "current_context",
    "get_causal_config",
    "new_span_id",
    "new_trace_id",
    "publish_causal",
    "request_span_id",
    "request_trace_id",
    "span_forest",
    "use_causal",
    "use_context",
    "write_causal_chrome_trace",
]

#: Version of the causal *section* layout (independent of the manifest
#: schema version, which gates the envelope).
CAUSAL_SCHEMA_VERSION = 1

#: The four critical-path edge types, in chain order.
EDGE_TYPES = ("queue", "service", "transfer", "join")

#: ``cspan`` record fields owned by the span machinery; caller attrs with
#: these names are namespaced to ``attr_<key>`` rather than raising.
RESERVED_CSPAN_FIELDS = frozenset(
    {"event", "ts", "name", "trace_id", "span_id", "parent_id", "wall_s"}
)


# -- trace context ---------------------------------------------------------

_TRACEPARENT_VERSION = "00"


@dataclass(frozen=True)
class TraceContext:
    """One position in a causal tree: trace + span + parent identity.

    ``trace_id`` is 32 lowercase hex chars, ``span_id`` 16, matching the
    W3C trace-context field widths so :meth:`to_traceparent` round-trips
    through any standard propagation header.  ``parent_id`` is ``None``
    at a tree root (it is *not* carried by the traceparent wire format —
    a deserialized context is always a remote parent).
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

    def to_traceparent(self) -> str:
        """W3C ``traceparent`` form: ``00-<trace_id>-<span_id>-01``."""
        return (
            f"{_TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}-01"
        )

    @classmethod
    def from_traceparent(cls, header: str) -> "TraceContext":
        """Parse a ``traceparent`` header back into a context.

        The resulting context has ``parent_id=None`` — the wire format
        carries only the caller's span identity, which becomes the
        *parent* of whatever span the receiver opens via :meth:`child`.
        """
        if not isinstance(header, str):
            raise TypeError(
                f"traceparent must be a string, got {type(header).__name__}"
            )
        parts = header.strip().split("-")
        if len(parts) != 4:
            raise ValueError(
                f"traceparent needs 4 '-'-separated fields, got {header!r}"
            )
        version, trace_id, span_id, flags = parts
        if len(version) != 2 or _not_hex(version) or version == "ff":
            raise ValueError(f"bad traceparent version {version!r}")
        if len(flags) != 2 or _not_hex(flags):
            raise ValueError(f"bad traceparent flags {flags!r}")
        return cls(trace_id=trace_id, span_id=span_id, parent_id=None)


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
    seeded runs — and in particular a scalar vs a batched pass of the
    same workload — produce identical causal DAG identities.  The
    ``run_key`` is the collector's workload fingerprint (arrivals, file
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


def current_context() -> TraceContext | None:
    """The ambient :class:`TraceContext`, or ``None`` outside any span."""
    return _ctx.get()


@contextmanager
def use_context(ctx: TraceContext) -> Iterator[TraceContext]:
    """Install ``ctx`` as the ambient context for the block.

    The entry point for *remote* parents: deserialize a traceparent
    header, install it, and every :func:`causal_span` inside the block
    parents under the caller's span.
    """
    if not isinstance(ctx, TraceContext):
        raise TypeError(
            f"ctx must be a TraceContext, got {type(ctx).__name__}"
        )
    token: Token = _ctx.set(ctx)
    try:
        yield ctx
    finally:
        _ctx.reset(token)


@contextmanager
def causal_span(
    name: str, /, *, tracer: Tracer | None = None, **attrs: Any
) -> Iterator[TraceContext | None]:
    """One causal span: opens a child context, emits a ``cspan`` on exit.

    With no ambient context a fresh trace is rooted; nested spans chain
    ``parent_id`` automatically through the :class:`~contextvars.ContextVar`
    (which asyncio tasks and thread-pool executors copy, so the
    propagation keeps working when the store goes concurrent).  The
    emitted record carries ``trace_id``/``span_id``/``parent_id``,
    ``wall_s``, and the caller's ``attrs`` (reserved names are renamed
    to ``attr_<key>``).  Disabled tracing skips everything — one
    ``enabled`` check, no context mutation.
    """
    t = tracer if tracer is not None else get_tracer()
    if not t.enabled:
        yield None
        return
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


# -- run configuration + ambient plumbing (mirrors obs.timeline) ----------


@dataclass(frozen=True)
class CausalConfig:
    """Knobs of one run's causal collection.

    ``top_k`` bounds the slowest-request chains embedded in the
    finalized section; ``tolerance`` is the relative error the
    conservation check accepts (the acceptance gate re-asserts the
    default 1e-9).
    """

    top_k: int = 64
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


#: The causal :class:`~repro.obs.sections.Channel` (see
#: :mod:`repro.obs.sections`).
CAUSAL = Channel("causal", "causal", CausalConfig, "scheme")
get_causal_config = CAUSAL.current
use_causal = CAUSAL.use
collect_causal = CAUSAL.collect
publish_causal = CAUSAL.publish


# -- the collector ---------------------------------------------------------


class CausalCollector(PartitionRecorder):
    """Buffers raw per-partition records; all analysis in :meth:`finalize`.

    Shares :class:`~repro.obs.timeline.TimelineCollector`'s hook API
    (:class:`~repro.obs.timeline.PartitionRecorder`), so the lifecycle
    can fan one guarded call out to both collectors and no discipline
    needs causal-specific code.  :meth:`finalize` computes every request's
    critical chain, verifies the conservation invariant, and returns a
    JSON-able section; :meth:`emit_spans` (call after finalize, only
    when tracing) emits the full per-request span trees as ``cspan``
    events with deterministic ids.
    """

    def __init__(
        self,
        config: CausalConfig,
        *,
        n_requests: int,
        n_servers: int,
        scheme: str,
        engine: str,
    ) -> None:
        super().__init__(
            config,
            n_requests=n_requests,
            n_servers=n_servers,
            scheme=scheme,
            engine=engine,
        )
        #: Workload fingerprint, set by finalize; discriminates repeated
        #: same-scheme runs in one process so trace ids never collide.
        self.run_key = ""
        #: Sorted arrays stashed by finalize for :meth:`emit_spans`.
        self._fin: dict[str, Any] | None = None

    def finalize(
        self,
        *,
        times: np.ndarray,
        file_ids: np.ndarray,
        latencies: np.ndarray,
        warmup_fraction: float = 0.0,
    ) -> dict[str, Any]:
        """Critical chains + conservation check, as one JSON-able section.

        Deterministic by construction: records are lexsorted by
        ``(request, partition)`` before any arithmetic, so scalar
        appends, array blocks, and batched frames all produce identical
        sections.
        """
        cfg = self.config
        times = np.asarray(times, dtype=np.float64)
        latencies = np.asarray(latencies, dtype=np.float64)
        file_ids = np.asarray(file_ids, dtype=np.int64)
        n_req = int(latencies.size)

        # Workload fingerprint for the deterministic trace ids: scalar
        # and batched passes of one workload see byte-identical arrays
        # here, while a load sweep's repeated same-scheme runs do not —
        # without it their span ids would collide in a shared trace.
        fp = blake2b(digest_size=8)
        fp.update(times.tobytes())
        fp.update(file_ids.tobytes())
        fp.update(latencies.tobytes())
        self.run_key = fp.hexdigest()

        req, pos, server, size, start, end, extra, _gf = (
            self._merged_records()
        )
        order = np.lexsort((pos, req))
        req = req[order]
        pos = pos[order]
        server = server[order]
        size = size[order]
        start = start[order]
        end = end[order]
        extra = extra[order]

        ids = np.arange(n_req, dtype=np.int64)
        blk_lo = np.searchsorted(req, ids, side="left")
        blk_hi = np.searchsorted(req, ids, side="right")
        kk = blk_hi - blk_lo
        crit = self.crit_pos[:n_req]
        valid = (kk > 0) & (crit >= 0) & (crit < kk)
        crow = np.where(valid, blk_lo + np.clip(crit, 0, None), 0)
        if req.size:
            # A discipline records each partition position exactly once,
            # so within one request's block ``pos`` is 0..k-1 in order
            # and the critical row sits at ``blk_lo + crit``; verify
            # rather than assume, demoting mismatches to join-only.
            valid &= np.where(valid, pos[crow] == crit, False)

        queue = np.zeros(n_req)
        service = np.zeros(n_req)
        transfer = np.zeros(n_req)
        crit_server = np.full(n_req, -1, dtype=np.int64)
        crit_bytes = np.zeros(n_req)
        if req.size and n_req:
            rows = crow[valid]
            queue[valid] = start[rows] - times[valid]
            service[valid] = end[rows] - start[rows]
            transfer[valid] = extra[rows]
            crit_server[valid] = server[rows]
            crit_bytes[valid] = size[rows]
        join = latencies - queue - service - transfer

        # Conservation: re-add the segments and compare against the
        # end-to-end latency.  ``join`` is the residual, so the only
        # error is float re-addition noise (a few ulp).
        total = queue + service + transfer + join
        denom = np.maximum(np.abs(latencies), 1e-300)
        rel = np.abs(total - latencies) / denom
        max_rel = float(rel.max()) if n_req else 0.0
        conservation = {
            "checked": n_req,
            "max_rel_err": max_rel,
            "tolerance": float(cfg.tolerance),
            "ok": bool(max_rel <= cfg.tolerance),
        }

        skip = int(n_req * warmup_fraction)
        edges = {
            "queue_s": float(queue[skip:].sum()),
            "service_s": float(service[skip:].sum()),
            "transfer_s": float(transfer[skip:].sum()),
            "join_s": float(join[skip:].sum()),
            "requests": int(n_req - skip),
        }

        chains: list[dict[str, Any]] = []
        steady = latencies[skip:]
        if steady.size:
            k_top = min(cfg.top_k, int(steady.size))
            slowest = np.argsort(-steady, kind="stable")[:k_top] + skip
            for r in slowest.tolist():
                chains.append(
                    {
                        "req": int(r),
                        "trace_id": request_trace_id(
                            self.scheme, self.engine, int(r), self.run_key
                        ),
                        "file_id": int(file_ids[r]),
                        "arrival_s": float(times[r]),
                        "latency_s": float(latencies[r]),
                        "k": int(kk[r]),
                        "crit": int(crit[r]),
                        "server": int(crit_server[r]),
                        "bytes": float(crit_bytes[r]),
                        "queue_s": float(queue[r]),
                        "service_s": float(service[r]),
                        "transfer_s": float(transfer[r]),
                        "join_s": float(join[r]),
                        "missed": bool(self.missed[r]),
                        "straggled": bool(self.straggled[r]),
                    }
                )

        self._fin = {
            "req": req,
            "pos": pos,
            "server": server,
            "size": size,
            "start": start,
            "end": end,
            "extra": extra,
            "times": times,
            "file_ids": np.asarray(file_ids, dtype=np.int64),
            "latencies": latencies,
            "blk_lo": blk_lo,
            "blk_hi": blk_hi,
            "crit": crit,
            "valid": valid,
            "queue": queue,
            "service": service,
            "transfer": transfer,
            "join": join,
        }
        return {
            "schema_version": CAUSAL_SCHEMA_VERSION,
            "scheme": self.scheme,
            "engine": self.engine,
            "run_key": self.run_key,
            "n_requests": n_req,
            "n_servers": self.n_servers,
            "warmup_skipped": skip,
            "conservation": conservation,
            "edges": edges,
            "chains": chains,
        }

    def emit_spans(self, tracer: Tracer) -> int:
        """Emit every request's span tree as ``cspan`` events.

        Call after :meth:`finalize` with an enabled tracer.  Timestamps
        are simulated seconds; ids are the deterministic
        :func:`request_trace_id` / :func:`request_span_id` family, so a
        scalar and a batched trace of one workload carry identical DAGs.
        Returns the number of events emitted.
        """
        if self._fin is None:
            raise RuntimeError("emit_spans requires finalize() first")
        if not tracer.enabled:
            return 0
        f = self._fin
        event = tracer.event
        n = 0
        lat = f["latencies"]
        for r in range(int(lat.size)):
            tid = request_trace_id(self.scheme, self.engine, r, self.run_key)
            root = request_span_id(tid, "request")
            arrival = float(f["times"][r])
            latency = float(lat[r])
            crit = int(f["crit"][r])
            event(
                ev.CSPAN,
                ts=arrival,
                name="request",
                trace_id=tid,
                span_id=root,
                parent_id=None,
                scheme=self.scheme,
                engine=self.engine,
                req=r,
                file_id=int(f["file_ids"][r]),
                latency_s=latency,
                k=int(f["blk_hi"][r] - f["blk_lo"][r]),
                crit=crit,
                missed=bool(self.missed[r]),
                straggled=bool(self.straggled[r]),
            )
            n += 1
            for row in range(int(f["blk_lo"][r]), int(f["blk_hi"][r])):
                p = int(f["pos"][row])
                event(
                    ev.CSPAN,
                    ts=float(f["start"][row]),
                    name="fetch",
                    trace_id=tid,
                    span_id=request_span_id(tid, f"fetch{p}"),
                    parent_id=root,
                    scheme=self.scheme,
                    req=r,
                    pos=p,
                    server=int(f["server"][row]),
                    bytes=float(f["size"][row]),
                    queue_s=float(f["start"][row] - arrival),
                    service_s=float(f["end"][row] - f["start"][row]),
                    transfer_s=float(f["extra"][row]),
                    critical=bool(p == crit),
                )
                n += 1
            join_s = float(f["join"][r])
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


# -- DAG reconstruction from traces ---------------------------------------


def span_forest(source) -> list[dict[str, Any]]:
    """Rebuild causal span trees from ``cspan`` events.

    Returns the root nodes; every node is the original record plus a
    ``children`` list.  A node whose ``parent_id`` never appears is
    promoted to a root (a trace started mid-run), matching the tolerant
    behaviour of :func:`repro.obs.replay.span_tree`.
    """
    nodes: dict[str, dict[str, Any]] = {}
    order: list[dict[str, Any]] = []
    for record in load_events(source):
        if record.get("event") != ev.CSPAN or "span_id" not in record:
            continue
        node = {**record, "children": []}
        nodes[str(record["span_id"])] = node
        order.append(node)
    roots: list[dict[str, Any]] = []
    for node in order:
        parent = node.get("parent_id")
        if parent is not None and str(parent) in nodes:
            nodes[str(parent)]["children"].append(node)
        else:
            roots.append(node)
    return roots


def causal_from_trace(
    source, tolerance: float = 1e-9
) -> list[dict[str, Any]]:
    """Reconstruct per-request causal DAGs from a JSONL trace.

    Groups engine ``cspan`` trees (``request`` roots with ``fetch`` /
    ``join`` children) per scheme, recomputes each request's critical
    chain from the *replayed JSON floats*, and re-verifies the
    conservation invariant.  Returns one section per scheme, shaped
    like :meth:`CausalCollector.finalize` output plus reconstruction
    accounting: ``reconstructed`` counts requests whose full span tree
    (root, all ``k`` fetches, join, and a critical fetch) came back.

    Replay is tolerant: unknown event kinds are ignored (they are not
    ``cspan``), and malformed ``cspan`` records (missing ids or fields)
    count under ``dropped`` instead of raising.
    """
    roots = span_forest(source)
    per_scheme: dict[str, list[dict[str, Any]]] = {}
    dropped = 0
    for root in roots:
        if root.get("name") != "request":
            continue  # store-plane / foreign trees have their own roots
        if "latency_s" not in root or "k" not in root:
            dropped += 1
            continue
        per_scheme.setdefault(str(root.get("scheme", "?")), []).append(root)

    sections: list[dict[str, Any]] = []
    for scheme in sorted(per_scheme):
        reqs = per_scheme[scheme]
        n_req = len(reqs)
        reconstructed = 0
        max_rel = 0.0
        edges = {
            "queue_s": 0.0,
            "service_s": 0.0,
            "transfer_s": 0.0,
            "join_s": 0.0,
            "requests": n_req,
        }
        chains: list[dict[str, Any]] = []
        for root in reqs:
            k = int(root["k"])
            latency = float(root["latency_s"])
            fetches = [
                c for c in root["children"] if c.get("name") == "fetch"
            ]
            joins = [c for c in root["children"] if c.get("name") == "join"]
            crit_fetch = next(
                (c for c in fetches if c.get("critical")), None
            )
            complete = (
                len(fetches) == k and len(joins) == 1
                and (crit_fetch is not None or k == 0)
            )
            if complete:
                reconstructed += 1
            queue = service = transfer = 0.0
            server = -1
            if crit_fetch is not None:
                queue = float(crit_fetch.get("queue_s", 0.0))
                service = float(crit_fetch.get("service_s", 0.0))
                transfer = float(crit_fetch.get("transfer_s", 0.0))
                server = int(crit_fetch.get("server", -1))
            join_s = float(joins[0]["join_s"]) if joins else 0.0
            total = queue + service + transfer + join_s
            rel = abs(total - latency) / max(abs(latency), 1e-300)
            max_rel = max(max_rel, rel)
            edges["queue_s"] += queue
            edges["service_s"] += service
            edges["transfer_s"] += transfer
            edges["join_s"] += join_s
            chains.append(
                {
                    "req": int(root.get("req", -1)),
                    "trace_id": str(root.get("trace_id", "?")),
                    "file_id": int(root.get("file_id", -1)),
                    "arrival_s": float(root.get("ts", 0.0)),
                    "latency_s": latency,
                    "k": k,
                    "crit": int(root.get("crit", -1)),
                    "server": server,
                    "bytes": float(
                        crit_fetch.get("bytes", 0.0) if crit_fetch else 0.0
                    ),
                    "queue_s": queue,
                    "service_s": service,
                    "transfer_s": transfer,
                    "join_s": join_s,
                    "missed": bool(root.get("missed", False)),
                    "straggled": bool(root.get("straggled", False)),
                }
            )
        chains.sort(key=lambda c: -c["latency_s"])
        sections.append(
            {
                "schema_version": CAUSAL_SCHEMA_VERSION,
                "scheme": scheme,
                "engine": str(reqs[0].get("engine", "?")),
                "n_requests": n_req,
                "warmup_skipped": 0,
                "reconstructed": reconstructed,
                "dropped": dropped,
                "conservation": {
                    "checked": n_req,
                    "max_rel_err": max_rel,
                    "tolerance": float(tolerance),
                    "ok": bool(max_rel <= tolerance),
                },
                "edges": edges,
                "chains": chains,
            }
        )
    return sections


# -- rendering helpers -----------------------------------------------------


def critical_edge_rows(section: dict[str, Any]) -> list[dict[str, Any]]:
    """Edge-type/seconds/share rows of one section's aggregation."""
    edges = section.get("edges") or {}
    total = sum(float(edges.get(f"{e}_s", 0.0)) for e in EDGE_TYPES)
    rows = []
    for edge in EDGE_TYPES:
        seconds = float(edges.get(f"{edge}_s", 0.0))
        rows.append(
            {
                "edge": edge,
                "seconds": seconds,
                "share_pct": 100.0 * seconds / total if total else 0.0,
            }
        )
    return rows


def critical_chain_rows(
    section: dict[str, Any], top: int = 10
) -> list[dict[str, Any]]:
    """Slowest-request chain rows for one section (CLI table form)."""
    rows = []
    for chain in (section.get("chains") or [])[:top]:
        rows.append(
            {
                "req": chain["req"],
                "file": chain["file_id"],
                "latency_s": chain["latency_s"],
                "queue_s": chain["queue_s"],
                "service_s": chain["service_s"],
                "transfer_s": chain["transfer_s"],
                "join_s": chain["join_s"],
                "k": chain["k"],
                "server": chain["server"],
                "flags": "".join(
                    flag
                    for flag, on in (
                        ("S", chain.get("straggled")),
                        ("M", chain.get("missed")),
                    )
                    if on
                )
                or "-",
                "trace": str(chain.get("trace_id", "?"))[:12],
            }
        )
    return rows


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


def causal_chrome_events(
    source, pid: int = 3, max_tracks: int = 32
) -> list[dict[str, Any]]:
    """Chrome trace events of causal span trees, with flow binding.

    Every span becomes an "X" event (timestamps in the span's own clock
    — simulated seconds for engine trees, ``perf_counter`` for store
    spans — scaled to microseconds), and every parent→child edge
    becomes an "s"/"f" flow pair so Perfetto draws the causal arrows.
    Trees round-robin over ``max_tracks`` thread lanes to stay legible.
    """
    roots = span_forest(source)
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "pid": pid,
            "tid": 1,
            "name": "process_name",
            "args": {"name": "repro.causal"},
        }
    ]
    for i, root in enumerate(roots):
        tid = (i % max_tracks) + 1
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


def write_causal_chrome_trace(source, path) -> int:
    """Write causal span trees as a Chrome trace file; returns span count."""
    import json
    from pathlib import Path

    events = causal_chrome_events(source)
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    Path(path).write_text(json.dumps(doc), encoding="utf-8")
    return sum(1 for e in events if e["ph"] == "X")
