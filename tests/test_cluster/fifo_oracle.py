"""Reference oracle for the ``fifo`` discipline (tests only).

The per-request loop the batched fifo engine in
:mod:`repro.cluster.engine.fifo` replaced: one request at a time, its
keyed draws read row by row (:mod:`keyed_draws`), one per-server
``free_at`` clock, and every partition read its own queue entry — two
partitions of one request on one server run back to back, and both count
in the byte ledger.  It is slow but obviously faithful to the M/G/1
model, so the parity suites compare the production engine against it bit
for bit.

Run it on a :class:`~repro.cluster.engine.lifecycle.RequestLifecycle`
exactly like the production discipline: ``run_fifo(lc)``.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.engine.lifecycle import RequestLifecycle, SimulationResult

from .keyed_draws import KeyedDraws

__all__ = ["run_fifo"]


def run_fifo(lc: RequestLifecycle) -> SimulationResult:
    if lc.trace is None:  # a streamed run; the loop indexes the trace
        lc.trace = lc.stream.materialize()
    keyed = KeyedDraws(lc)
    bandwidths = lc.bandwidths
    n_requests = lc.n_requests

    free_at = np.zeros(lc.cluster.n_servers)
    server_bytes = np.zeros(lc.cluster.n_servers)
    latencies = np.empty(n_requests)
    if lc.track:
        # Window loads come from snapshot-diffing this vector.
        lc.popularity.attach_cumulative_loads(server_bytes)
    frames = _Frames(n_requests) if lc.record else None
    times = lc.trace.times
    file_ids = lc.trace.file_ids

    for j in range(n_requests):
        t = times[j]
        fid = int(file_ids[j])
        op = keyed.plan(j, fid)
        if lc.track:
            lc.popularity.observe(
                fid, t=t, servers=op.server_ids, sizes=op.sizes
            )
        servers = op.server_ids
        k = servers.size
        bw = bandwidths[servers]

        # Base service times, with goodput loss from this request's
        # fan-out.
        factors = lc.goodput_row(k)[servers]
        service = op.sizes / (bw * factors)
        if lc.exponential:
            service = service * keyed.jitter(j, k)

        # One queue entry per partition read, in partition order.
        start = np.empty(k)
        completion = np.empty(k)
        for i in range(k):
            s = servers[i]
            start[i] = max(t, free_at[s])
            completion[i] = start[i] + service[i]
            free_at[s] = completion[i]
            server_bytes[s] += op.sizes[i]

        # Straggler reads report late without occupying the NIC — the
        # fork-join sees the late time, the queue does not.
        reported = completion
        straggled = False
        extra = np.zeros(k)
        if lc.injector.enabled:
            extra, mult = keyed.report_delays(j, op)
            reported = completion + extra
            straggled = bool(np.any(mult > 1.0))
            lc.straggler_reads += straggled

        if op.join_count < k:
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

        if frames is not None:
            frames.request(j, missed, straggled)
            frames.join(j, int(np.flatnonzero(reported == join_at)[0]))
            frames.partitions(
                j, servers, op.sizes, start, completion, extra, factors
            )

        if lc.emit:
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

    if frames is not None:
        frames.flush(lc.log)
    return lc.result(latencies, server_bytes)


class _Frames:
    """Per-request partition-log facts, handed over as one frame each at
    the end.

    The log sorts partition rows by ``(request, partition)`` before any
    aggregation, so the oracles may record in any order.
    """

    def __init__(self, n_requests: int) -> None:
        self.missed = np.zeros(n_requests, dtype=bool)
        self.straggled = np.zeros(n_requests, dtype=bool)
        self.crit = np.full(n_requests, -1, dtype=np.int64)
        self.rows: list[tuple] = []

    def request(self, j: int, missed: bool, straggled: bool) -> None:
        self.missed[j] = missed
        self.straggled[j] = straggled

    def join(self, j: int, pos: int) -> None:
        self.crit[j] = pos

    def partition(self, j, pos, server, size, start, end, extra, gfactor):
        self.rows.append(
            (j, pos, server, size, start, end, extra, gfactor)
        )

    def partitions(self, j, servers, sizes, starts, ends, extras, gfactors):
        for pos, row in enumerate(
            zip(servers, sizes, starts, ends, extras, gfactors)
        ):
            self.partition(j, pos, *row)

    def flush(self, log) -> None:
        reqs = np.arange(self.crit.size)
        cols = [np.array(c) for c in zip(*self.rows)] or [
            np.empty(0) for _ in range(8)
        ]
        log.record_request_frame(reqs, self.missed, self.straggled)
        log.record_join_frame(reqs, self.crit)
        log.record_partition_frame(*cols)
