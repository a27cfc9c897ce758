"""Per-layer timing for a traced benchmark run.

A traced run patches the public entry points of each layer for the
duration of one :func:`recording` and restores them on exit:

* coarse calls (observer finalize, lineage recovery, and the benchmark's
  own ``engine.run`` / ``obs.manifest`` / ``store.rebalance`` blocks)
  open a :mod:`repro.obs.spans` span, so they land in one span tree with
  the spans the program opens itself (``scale_search``,
  ``repartition_plan``, ``store.read``, ``store.write``, ...);
* per-request calls (``plan_read``, batch planning, worker block get/put,
  GF(256) matmul, ...) would cost more as spans than they measure, so
  they only count calls and accumulate seconds, charged to whichever span
  was open when the outermost of them started.

The self time of a span is its wall minus its child spans and the
accumulated calls charged to it; the self time of an accumulated layer is
its total minus the accumulated calls nested inside it.  Over a phase
wrapped in one root span the self times add back to the phase wall —
:func:`self_times` plus the residual outside the root is what the traced
run checks against its measured wall.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager, nullcontext
from typing import Any, Callable, Iterator

from repro.obs.spans import SpanRecord, collect_spans, current_span_id, span


class Untraced:
    """Stand-in for a :class:`Recording` when tracing is off: spans are free."""

    def span(self, name: str, **labels: Any):
        return nullcontext()


UNTRACED = Untraced()


class Recording:
    """Span records plus per-layer call counters for one traced block."""

    def __init__(self) -> None:
        self.records: list[SpanRecord] = []
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.total: defaultdict[str, float] = defaultdict(float)
        #: Seconds of accumulated calls nested inside each layer's calls.
        self.nested: defaultdict[str, float] = defaultdict(float)
        #: Calls that raised (a worker block miss is a ``BlockNotFound``).
        self.errors: defaultdict[str, int] = defaultdict(int)
        #: Payload bytes and codec-reported seconds, keyed by layer.
        self.bytes: defaultdict[str, float] = defaultdict(float)
        self.codec_s: defaultdict[str, float] = defaultdict(float)
        #: Span id -> seconds of outermost accumulated calls made under it.
        self.charged: defaultdict[int | None, float] = defaultdict(float)
        self._open: list[list[float]] = []

    def span(self, name: str, **labels: Any):
        return span(name, **labels)

    def call(self, key: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` as one counted, timed call of layer ``key``."""
        frame = [0.0]  # seconds of accumulated calls nested in this one
        self._open.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except StopIteration:
            raise
        except Exception:
            self.errors[key] += 1
            raise
        finally:
            dur = time.perf_counter() - start
            self._open.pop()
            self.calls[key] += 1
            self.total[key] += dur
            self.nested[key] += frame[0]
            if self._open:
                self._open[-1][0] += dur
            else:
                self.charged[current_span_id()] += dur

    def span_total(self, name: str, **labels: Any) -> float:
        """Wall of the spans called ``name`` with ``labels``, counting a
        recursive span (lineage recovery of a parent file) once."""
        names = {r.span_id: r.name for r in self.records}
        return sum(
            r.wall_s
            for r in self.records
            if r.name == name
            and names.get(r.parent) != name
            and all(r.labels.get(k) == v for k, v in labels.items())
        )


def layer_of(record: SpanRecord) -> str:
    """Layer name of a span: its name, suffixed with its scheme if labelled."""
    scheme = record.labels.get("scheme")
    return f"{record.name}.{scheme}" if scheme is not None else record.name


def self_times(rec: Recording) -> dict[str, tuple[int, float, float]]:
    """``layer -> (calls, total_s, self_s)`` over spans and accumulated calls."""
    ids = {r.span_id for r in rec.records}
    child: defaultdict[int, float] = defaultdict(float)
    for r in rec.records:
        if r.parent in ids:
            child[r.parent] += r.wall_s
    out: dict[str, list] = {}
    for r in rec.records:
        row = out.setdefault(layer_of(r), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += r.wall_s
        row[2] += r.wall_s - child[r.span_id] - rec.charged.get(r.span_id, 0.0)
    for key, total in rec.total.items():
        row = out.setdefault(key, [0, 0.0, 0.0])
        row[0] += rec.calls[key]
        row[1] += total
        row[2] += total - rec.nested[key]
    return {k: (c, t, s) for k, (c, t, s) in sorted(out.items())}


def _timed_chunks(rec: Recording, key: str, gen: Iterator) -> Iterator:
    """Time each resumption of a generator, not the time it sits suspended."""
    while True:
        try:
            item = rec.call(key, next, gen)
        except StopIteration:
            return
        yield item


def _patches(rec: Recording) -> list[tuple[object, str, object]]:
    """``(owner, attribute, replacement)`` for every instrumented entry point."""
    import repro.cluster.engine.fifo as fifo_module
    import repro.store.store_client as store_client_module
    from repro.cluster.engine.batch import BatchPlanner
    from repro.ec.codec import RSFileCodec
    from repro.ec.galois import GF256
    from repro.obs.causal import CausalCollector
    from repro.obs.slo import SLOMonitor
    from repro.obs.timeline import TimelineCollector
    from repro.policies import (
        CachePolicy,
        ECCachePolicy,
        SelectiveReplicationPolicy,
    )
    from repro.store.lineage import LineageGraph
    from repro.store.worker import Worker
    from repro.workloads.streams import PoissonStream

    def counted(key: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return rec.call(key, fn, *args, **kwargs)

        return wrapper

    def spanned(name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return wrapper

    def plan_read(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self, file_id, rng):
            return rec.call(f"policies.plan_read.{self.name}", fn, self, file_id, rng)

        return wrapper

    chunks = PoissonStream.chunks

    @functools.wraps(chunks)
    def timed_chunks(self, *args, **kwargs):
        return _timed_chunks(rec, "workloads.stream", chunks(self, *args, **kwargs))

    encode = RSFileCodec.encode_file

    @functools.wraps(encode)
    def encode_file(self, data):
        out = rec.call("ec.encode", encode, self, data)
        rec.bytes["ec.encode"] += len(data)
        rec.codec_s["ec.encode"] += self.last_encode_seconds
        return out

    decode = RSFileCodec.decode_file

    @functools.wraps(decode)
    def decode_file(self, shard_ids, shards, orig_len):
        out = rec.call("ec.decode", decode, self, shard_ids, shards, orig_len)
        rec.bytes["ec.decode"] += len(out)
        rec.codec_s["ec.decode"] += self.last_decode_seconds
        return out

    matmul = GF256.__dict__["matmul"].__func__

    def patch(owner, attr: str, wrap, key: str):
        return owner, attr, wrap(key, vars(owner)[attr])

    patches: list[tuple[object, str, object]] = [
        (PoissonStream, "chunks", timed_chunks),
        (RSFileCodec, "encode_file", encode_file),
        (RSFileCodec, "decode_file", decode_file),
        (GF256, "matmul", classmethod(counted("ec.gf_matmul", matmul))),
        patch(BatchPlanner, "plan_batch", counted, "engine.batch_plan"),
        patch(fifo_module, "fifo_schedule_grouped", counted, "engine.fifo_schedule"),
        patch(TimelineCollector, "finalize", spanned, "obs.finalize.timeline"),
        patch(CausalCollector, "finalize", spanned, "obs.finalize.causal"),
        patch(SLOMonitor, "evaluate", spanned, "obs.finalize.slo"),
        patch(Worker, "get_block", counted, "store.worker.get"),
        patch(Worker, "put_block", counted, "store.worker.put"),
        patch(LineageGraph, "recover", spanned, "store.recover"),
        patch(store_client_module, "split_bytes", counted, "ec.split"),
        patch(store_client_module, "unsplit_bytes", counted, "ec.split"),
    ]
    # Patch every class that defines ``plan_read`` itself.  SP-Cache inherits
    # the base method, so the batch planner's "stock plan_read" identity test
    # still sees the same (wrapped) function on both sides.
    for cls in (CachePolicy, ECCachePolicy, SelectiveReplicationPolicy):
        patches.append((cls, "plan_read", plan_read(cls.__dict__["plan_read"])))
    return patches


@contextmanager
def recording() -> Iterator[Recording]:
    """Instrument every layer entry point for the block; yields the recording."""
    rec = Recording()
    with ExitStack() as stack:
        for owner, attr, replacement in _patches(rec):
            original = vars(owner)[attr]
            setattr(owner, attr, replacement)
            stack.callback(setattr, owner, attr, original)
        collector = stack.enter_context(collect_spans())
        try:
            yield rec
        finally:
            rec.records.extend(collector.records)
