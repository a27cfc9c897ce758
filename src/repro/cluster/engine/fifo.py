"""FIFO single-channel servers — the paper's M/G/1 abstraction.

Exactness without an event heap: every fork of a request arrives at the
request's arrival instant, and requests are processed in nondecreasing
arrival time, so per-server FIFO order equals request order — grouping a
batch's flows by server (a stable sort) and running each server's
``start = max(t, free); free = start + service`` recurrence yields the
schedule an event-driven simulator would.  Every flow is its own queue
entry, so two partitions of one request on one server run back to back.
``tests/test_cluster/fifo_oracle.py`` keeps the per-request loop as the
reference the parity suites compare against bit for bit,
``tests/test_cluster/test_simulation_exactness.py`` checks an independent
heap-based M/M/1 implementation, and
``tests/test_cluster/test_forkjoin_exactness.py`` property-tests a
brute-force multi-server fork-join reference.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.engine.batch import (
    PlanBatch,
    _SegView,
    fifo_schedule_grouped,
)
from repro.cluster.engine.lifecycle import RequestLifecycle, SimulationResult
from repro.cluster.engine.registry import register_discipline

__all__ = ["FifoDiscipline"]


class FifoDiscipline:
    """One transfer at a time per server, queued in arrival order."""

    name = "fifo"

    def run(self, lc: RequestLifecycle) -> SimulationResult:
        free_at = np.zeros(lc.cluster.n_servers)
        server_bytes = lc.byte_ledger()
        latencies = np.empty(lc.n_requests)
        for j0, batch in lc.batches():
            _consume_batch(lc, batch, j0, free_at, server_bytes, latencies)
        return lc.result(latencies, server_bytes)


def _consume_batch(
    lc: RequestLifecycle,
    batch: PlanBatch,
    j0: int,
    free_at: np.ndarray,
    server_bytes: np.ndarray,
    latencies: np.ndarray,
) -> None:
    """Schedule one plan batch with array arithmetic."""
    n = batch.n
    servers = batch.servers
    sizes = batch.sizes
    k = batch.k
    off = batch.req_off
    times = batch.times

    service = sizes / (batch.bw * batch.gfactors)
    if batch.jitter is not None:
        service = service * batch.jitter

    lc.account_bytes(batch, server_bytes)

    # Per-server FIFO schedule: flows grouped by server, request order
    # preserved (stable sort over request-major flow order), all
    # servers scheduled in one grouped scan.
    # Radix passes scale with key width: server ids fit a narrow uint,
    # which makes the stable sort ~6x cheaper than sorting the int64s.
    narrow = np.min_scalar_type(max(lc.cluster.n_servers - 1, 1))
    order = np.argsort(servers.astype(narrow), kind="stable")
    ss = servers[order]
    group_starts = np.flatnonzero(
        np.concatenate(([True], ss[1:] != ss[:-1]))
    )
    group_off = np.append(group_starts, ss.size)
    present = ss[group_starts]
    # Start times only feed the record/emit paths — skip them otherwise.
    need_start = lc.record or lc.emit
    st, cp, free = fifo_schedule_grouped(
        np.repeat(times, k)[order],
        service[order],
        group_off,
        free_at[present],
        need_start=need_start,
    )
    start: np.ndarray | None = None
    if need_start:
        start = np.empty(servers.size)
        start[order] = st
    comp = np.empty(servers.size)
    comp[order] = cp
    free_at[present] = free

    reported = comp if batch.extra is None else comp + batch.extra
    lc.straggler_reads += int(np.count_nonzero(batch.straggled_mult))

    join_at = np.maximum.reduceat(reported, off[:-1])
    partial = np.flatnonzero(batch.join_count < k)
    if partial.size:
        join_at[partial] = _partial_joins(
            reported, off, k[partial], batch.join_count[partial], partial
        )

    missed = lc.admit_many(batch.file_ids)

    lat = (join_at - times) * (1.0 + batch.post_fraction) + batch.post_seconds
    if missed.any():
        lat[missed] *= lc.config.miss_penalty
    latencies[j0 : j0 + n] = lat

    if lc.record:
        _record_frames(
            lc, batch, j0, start, comp, reported, join_at, missed
        )

    if lc.emit:
        straggled = batch.straggled_mult
        off_list = off.tolist()
        t_list = times.tolist()
        f_list = batch.file_ids.tolist()
        for b in range(n):
            lo, hi = off_list[b], off_list[b + 1]
            t = t_list[b]
            lc.emit_read(
                ts=t,
                req=j0 + b,
                file_id=f_list[b],
                op=_SegView(servers[lo:hi], sizes[lo:hi]),
                straggled=bool(straggled[b]),
                missed=bool(missed[b]),
                queue_wait=float(np.max(start[lo:hi] - t)),
                service=float(np.max(service[lo:hi])),
            )
            lc.emit_read_done(
                ts=float(t + lat[b]),
                req=j0 + b,
                file_id=f_list[b],
                latency=float(lat[b]),
            )


def _partial_joins(
    reported: np.ndarray,
    off: np.ndarray,
    k: np.ndarray,
    join: np.ndarray,
    reqs: np.ndarray,
) -> np.ndarray:
    """The ``join``-th smallest reported completion of each request in
    ``reqs`` (fan-out ``k``), one row-wise partition per distinct
    ``(k, join)`` pair — a selection, so the value is a per-request
    ``np.partition``'s bit for bit."""
    out = np.empty(reqs.size)
    pair = k * (int(join.max()) + 1) + join
    for key in np.unique(pair).tolist():
        sel = pair == key
        kk, jj = int(k[sel][0]), int(join[sel][0])
        rows = reported[off[reqs[sel]][:, None] + np.arange(kk)]
        out[sel] = np.partition(rows, jj - 1, axis=1)[:, jj - 1]
    return out


def _record_frames(
    lc: RequestLifecycle,
    batch: PlanBatch,
    j0: int,
    start: np.ndarray,
    comp: np.ndarray,
    reported: np.ndarray,
    join_at: np.ndarray,
    missed: np.ndarray,
) -> None:
    """One partition-log frame per batch — no per-request Python objects."""
    n = batch.n
    k = batch.k
    total = batch.servers.size
    req_local = np.repeat(np.arange(n, dtype=np.int64), k)
    extras = (
        batch.extra if batch.extra is not None else np.zeros(total)
    )
    reqs = j0 + np.arange(n, dtype=np.int64)
    # Critical partition: the *first* flow whose reported completion
    # equals the join time; a reversed fancy assignment keeps the first
    # match per request.
    match = reported == np.repeat(join_at, k)
    crit = np.full(n, -1, dtype=np.int64)
    mreq = req_local[match][::-1]
    crit[mreq] = batch.pos[match][::-1]
    lc.log.record_partition_frame(
        j0 + req_local,
        batch.pos,
        batch.servers,
        batch.sizes,
        start,
        comp,
        extras,
        batch.gfactors,
    )
    lc.log.record_request_frame(reqs, missed, batch.straggled_mult)
    lc.log.record_join_frame(reqs, crit)


register_discipline(FifoDiscipline.name, FifoDiscipline)
