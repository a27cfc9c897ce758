"""FIFO single-channel servers — the paper's M/G/1 abstraction.

Exactness without an event heap: every fork of a request arrives at the
request's arrival instant, and requests are processed in nondecreasing
arrival time, so per-server FIFO order equals processing order — a
per-server ``free_at`` clock yields the same schedule an event-driven
simulator would.  ``tests/test_cluster/test_simulation_exactness.py``
checks this against an independent heap-based M/M/1 implementation, and
``tests/test_cluster/test_forkjoin_exactness.py`` property-tests it
against a brute-force multi-server fork-join reference.
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
from repro.workloads.arrivals import ArrivalTrace

__all__ = ["FifoDiscipline"]


class FifoDiscipline:
    """One transfer at a time per server, queued in arrival order."""

    name = "fifo"

    def run(self, lc: RequestLifecycle) -> SimulationResult:
        if lc.batch_planner is not None:
            return _run_batched(lc)
        bandwidths = lc.bandwidths
        n_requests = lc.n_requests

        free_at = np.zeros(lc.cluster.n_servers)
        server_bytes = np.zeros(lc.cluster.n_servers)
        latencies = np.empty(n_requests)

        exponential = lc.exponential
        injector = lc.injector
        emit = lc.emit
        record = lc.record
        recorders = lc.recorders
        track = lc.track
        if track:
            # Window loads come from snapshot-diffing this vector, so
            # observe_popularity costs nothing per request for loads.
            lc.popularity.attach_cumulative_loads(server_bytes)
        times = lc.trace.times
        file_ids = lc.trace.file_ids

        for j in range(n_requests):
            t = times[j]
            fid = int(file_ids[j])
            op = lc.plan(j, fid)
            if track:
                lc.observe_popularity(t, fid, op)
            servers = op.server_ids
            k = servers.size
            bw = bandwidths[servers]

            # Base service times, with goodput loss from this request's
            # fan-out.
            factors = lc.goodput_row(k)[servers]
            service = op.sizes / (bw * factors)
            if exponential:
                service = service * lc.jitter(j, k)

            start = np.maximum(t, free_at[servers])
            completion = start + service
            free_at[servers] = completion
            server_bytes[servers] += op.sizes

            # Straggler reads report late without occupying the NIC — the
            # fork-join sees the late time, the queue does not.
            reported = completion
            straggled = False
            extra = None
            if injector.enabled:
                extra, mult = lc.report_delays(j, op)
                reported = completion + extra
                straggled = bool(np.any(mult > 1.0))
                lc.count_straggled(straggled)

            if op.join_count < reported.size:
                join_at = np.partition(reported, op.join_count - 1)[
                    op.join_count - 1
                ]
            else:
                join_at = reported.max()

            missed = lc.admit(fid)
            latency = lc.request_latency(
                t, join_at, op.post_fraction, op.post_seconds, missed
            )
            latencies[j] = latency

            if record:
                crit = int(np.flatnonzero(reported == join_at)[0])
                extras = (
                    extra if extra is not None else np.zeros(reported.size)
                )
                for c in recorders:
                    c.record_partitions(
                        j, servers, op.sizes, start, completion, extras, factors
                    )
                    c.record_request(j, missed=missed, straggled=straggled)
                    c.record_join(j, crit)

            if emit:
                lc.emit_read(
                    ts=float(t),
                    req=j,
                    file_id=fid,
                    op=op,
                    straggled=straggled,
                    missed=missed,
                    queue_wait=float(np.max(start - t)),
                    service=float(np.max(service)),
                )
                lc.emit_read_done(
                    ts=float(t + latency), req=j, file_id=fid, latency=latency
                )

        return lc.result(latencies, server_bytes)


def _request_batches(lc: RequestLifecycle):
    """Yield ``(times, file_ids)`` batches from the trace or the stream."""
    size = lc.batch_size
    if lc.stream is not None and lc.trace is None:
        yield from lc.stream.chunks(size)
        return
    times = lc.trace.times
    file_ids = lc.trace.file_ids
    for lo in range(0, times.size, size):
        hi = lo + size
        yield times[lo:hi], file_ids[lo:hi]


def _run_batched(lc: RequestLifecycle) -> SimulationResult:
    """Vectorized fifo: schedule whole plan batches with array arithmetic.

    Bitwise-equal to the scalar loop above (the parity tests compare
    ``float.hex``): the batch planner gathers the scalar loop's keyed
    draws, the per-server schedule comes from
    :func:`fifo_schedule_grouped` (same float additions in the same
    order), and per-server byte accounting uses
    ``np.add.at`` (element-order accumulation, matching the per-request
    fancy adds).  Requests with duplicate servers inside one fork-join
    fall back to a per-request replay of the scalar array semantics
    (duplicate fancy indexing reads-before-writes and collapses adds).
    """
    n_requests = lc.n_requests
    n_servers = lc.cluster.n_servers
    free_at = np.zeros(n_servers)
    server_bytes = np.zeros(n_servers)
    latencies = np.empty(n_requests)
    if lc.track:
        lc.popularity.attach_cumulative_loads(server_bytes)
    assemble = lc.trace is None
    if assemble:
        all_times = np.empty(n_requests)
        all_fids = np.empty(n_requests, dtype=np.int64)

    j0 = 0
    for times, file_ids in _request_batches(lc):
        batch = lc.batch_planner.plan_batch(times, file_ids, j0)
        if assemble:
            all_times[j0 : j0 + batch.n] = batch.times
            all_fids[j0 : j0 + batch.n] = batch.file_ids
        _consume_fifo_batch(
            lc, batch, j0, free_at, server_bytes, latencies
        )
        j0 += batch.n

    if assemble:
        lc.trace = ArrivalTrace(all_times, all_fids)
    return lc.result(latencies, server_bytes)


def _consume_fifo_batch(
    lc: RequestLifecycle,
    batch: PlanBatch,
    j0: int,
    free_at: np.ndarray,
    server_bytes: np.ndarray,
    latencies: np.ndarray,
) -> None:
    n = batch.n
    servers = batch.servers
    sizes = batch.sizes
    k = batch.k
    off = batch.req_off
    total = servers.size

    service = sizes / (batch.bw * batch.gfactors)
    if batch.jitter is not None:
        service = service * batch.jitter

    if batch.has_dup:
        _consume_fifo_scalar(
            lc, batch, j0, service, free_at, server_bytes, latencies
        )
        return

    times = batch.times
    file_ids = batch.file_ids
    off_list = off.tolist()

    if lc.track:
        # The popularity monitor snapshot-diffs the cumulative byte
        # vector at window rolls, so observation and byte accrual must
        # interleave per request exactly as the scalar loop does.
        t_list = times.tolist()
        f_list = file_ids.tolist()
        for b in range(n):
            lo, hi = off_list[b], off_list[b + 1]
            seg_srv = servers[lo:hi]
            seg_sz = sizes[lo:hi]
            lc.observe_popularity(
                t_list[b], f_list[b], _SegView(seg_srv, seg_sz)
            )
            server_bytes[seg_srv] += seg_sz
    else:
        # No duplicates: element-order accumulation equals the scalar
        # per-request fancy adds bitwise.
        np.add.at(server_bytes, servers, sizes)

    # Per-server FIFO schedule: flows grouped by server, request order
    # preserved (stable sort over request-major flow order), all
    # servers scheduled in one grouped scan.
    t_flow = np.repeat(times, k)
    comp = np.empty(total)
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
        t_flow[order],
        service[order],
        group_off,
        free_at[present],
        need_start=need_start,
    )
    start: np.ndarray | None = None
    if need_start:
        start = np.empty(total)
        start[order] = st
    comp[order] = cp
    free_at[present] = free

    reported = comp if batch.extra is None else comp + batch.extra
    if lc.injector.enabled:
        lc.straggler_reads += int(np.count_nonzero(batch.straggled_mult))

    join_at = np.maximum.reduceat(reported, off[:-1])
    partial = np.flatnonzero(batch.join_count < k)
    if partial.size:
        join_at[partial] = _partial_joins(
            reported, off, k[partial], batch.join_count[partial], partial
        )

    missed = np.zeros(n, dtype=bool)
    if lc.lru is not None:
        admit = lc.admit
        for b, fid in enumerate(batch.file_ids.tolist()):
            missed[b] = admit(fid)

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
        t_list = times.tolist()
        f_list = file_ids.tolist()
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
    ``(k, join)`` pair — a selection, so the value is the scalar
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
    """One recorder frame per batch — no per-request Python objects."""
    n = batch.n
    k = batch.k
    total = batch.servers.size
    req_local = np.repeat(np.arange(n, dtype=np.int64), k)
    extras = (
        batch.extra if batch.extra is not None else np.zeros(total)
    )
    reqs = j0 + np.arange(n, dtype=np.int64)
    # Critical partition: the scalar path takes the *first* flow whose
    # reported completion equals the join time; a reversed fancy
    # assignment keeps the first match per request.
    match = reported == np.repeat(join_at, k)
    crit = np.full(n, -1, dtype=np.int64)
    mreq = req_local[match][::-1]
    crit[mreq] = batch.pos[match][::-1]
    for c in lc.recorders:
        c.record_partition_frame(
            j0 + req_local,
            batch.pos,
            batch.servers,
            batch.sizes,
            start,
            comp,
            extras,
            batch.gfactors,
        )
        c.record_request_frame(reqs, missed, batch.straggled_mult)
        c.record_join_frame(reqs, crit)


def _consume_fifo_scalar(
    lc: RequestLifecycle,
    batch: PlanBatch,
    j0: int,
    service: np.ndarray,
    free_at: np.ndarray,
    server_bytes: np.ndarray,
    latencies: np.ndarray,
) -> None:
    """Per-request replay for batches containing duplicate-server plans.

    Reuses the batch's precomputed draws but applies them with the scalar
    loop's exact fancy-indexing semantics: with duplicate indices, ``free_at[servers] = completion`` keeps the
    last write and ``server_bytes[servers] += sizes`` collapses the adds.
    """
    recorders = lc.recorders
    injector_enabled = lc.injector.enabled
    off = batch.req_off.tolist()
    times = batch.times.tolist()
    fids = batch.file_ids.tolist()
    for b in range(batch.n):
        lo, hi = off[b], off[b + 1]
        j = j0 + b
        t = times[b]
        fid = fids[b]
        srv = batch.servers[lo:hi]
        sz = batch.sizes[lo:hi]
        svc = service[lo:hi]
        if lc.track:
            lc.observe_popularity(t, fid, _SegView(srv, sz))
        start = np.maximum(t, free_at[srv])
        completion = start + svc
        free_at[srv] = completion
        server_bytes[srv] += sz
        reported = completion
        straggled = False
        extra = None
        if injector_enabled:
            extra = batch.extra[lo:hi]
            reported = completion + extra
            straggled = bool(batch.straggled_mult[b])
            lc.count_straggled(straggled)
        jc = int(batch.join_count[b])
        if jc < reported.size:
            join_at = np.partition(reported, jc - 1)[jc - 1]
        else:
            join_at = reported.max()
        missed = lc.admit(fid)
        latency = lc.request_latency(
            t,
            join_at,
            float(batch.post_fraction[b]),
            float(batch.post_seconds[b]),
            missed,
        )
        latencies[j] = latency
        if lc.record:
            crit = int(np.flatnonzero(reported == join_at)[0])
            extras = (
                extra if extra is not None else np.zeros(reported.size)
            )
            for c in recorders:
                c.record_partitions(
                    j, srv, sz, start, completion, extras,
                    batch.gfactors[lo:hi],
                )
                c.record_request(j, missed=missed, straggled=straggled)
                c.record_join(j, crit)
        if lc.emit:
            lc.emit_read(
                ts=t,
                req=j,
                file_id=fid,
                op=_SegView(srv, sz),
                straggled=straggled,
                missed=missed,
                queue_wait=float(np.max(start - t)),
                service=float(np.max(svc)),
            )
            lc.emit_read_done(
                ts=float(t + latency), req=j, file_id=fid, latency=latency
            )


register_discipline(FifoDiscipline.name, FifoDiscipline)
