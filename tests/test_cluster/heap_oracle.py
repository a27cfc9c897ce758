"""Reference oracle for the ``ps``/``limited(c)`` engine (tests only).

This is the pure-Python event loop the array-backed engine in
:mod:`repro.cluster.engine.shared_heap` replaced, kept as it was apart
from its draw calls, which read the keyed draws of
:mod:`repro.cluster.engine.draws` one request at a time
(:mod:`keyed_draws`), and its partition-log calls, which hand over one
frame each at the end: every flow lives in parallel Python lists, every rate
change pushes a fresh completion candidate onto one heap, and stale
candidates are skipped by generation number.  It plans each request with
the policy's ``plan_read`` and never touches the batch planner.  It is
slow but obviously faithful to the rate model, so the property tests in
``test_heap_engine.py`` compare the production engine against it bit for
bit.

Run it on a :class:`~repro.cluster.engine.lifecycle.RequestLifecycle`
exactly like the production loop: ``_run_heap(lc, capacity)`` with
``capacity=None`` for ``ps``; :func:`simulate_oracle` dispatches any
built-in discipline to its oracle.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

import numpy as np

from repro.cluster.engine.lifecycle import RequestLifecycle, SimulationResult
from repro.cluster.engine.registry import resolve_discipline

from .fifo_oracle import _Frames, run_fifo
from .keyed_draws import KeyedDraws

__all__ = ["_run_heap", "simulate_oracle"]


def _run_heap(
    lc: RequestLifecycle, capacity: int | None
) -> SimulationResult:
    """Drive the event heap; ``capacity=None`` means unbounded (pure PS)."""
    keyed = KeyedDraws(lc)
    bandwidths = lc.bandwidths
    client_bw = lc.cluster.effective_client_bandwidth
    n_requests = lc.n_requests
    trace = lc.trace
    injector = lc.injector
    goodput = lc.goodput
    exponential = lc.exponential
    emit = lc.emit
    record = lc.record
    frames = _Frames(n_requests) if record else None
    track = lc.track

    server_bytes = np.zeros(lc.cluster.n_servers)
    if track:
        # Window loads come from snapshot-diffing this vector (accrued
        # at flow completion in this engine).
        lc.popularity.attach_cumulative_loads(server_bytes)
    latencies = np.full(n_requests, np.nan)

    # Request bookkeeping.
    req_remaining = np.empty(n_requests, dtype=np.int64)
    req_post_fraction = np.empty(n_requests)
    req_post_seconds = np.empty(n_requests)
    req_miss = np.zeros(n_requests, dtype=bool)

    # Flow state (parallel lists indexed by flow id).
    f_server: list[int] = []
    f_request: list[int] = []
    f_remaining: list[float] = []
    f_rate: list[float] = []
    f_last: list[float] = []
    f_gen: list[int] = []
    f_extra: list[float] = []  # straggler report delay, seconds
    # Recorder bookkeeping, appended only when recording (indices stay
    # aligned with the lists above because ``record`` is run-constant).
    f_pos: list[int] = []  # partition position within the fork-join
    f_start: list[float] = []  # activation time (first holds bandwidth)
    f_bytes: list[float] = []  # nominal partition bytes
    f_gfactor: list[float] = []  # per-connection goodput factor

    # Only *active* flows hold bandwidth and appear in these sets; under
    # a finite capacity the overflow waits, rate-0, in per-server FIFOs.
    server_active: list[set[int]] = [
        set() for _ in range(lc.cluster.n_servers)
    ]
    request_active: list[set[int]] = [set() for _ in range(n_requests)]
    server_waiting: list[deque[int]] = [
        deque() for _ in range(lc.cluster.n_servers)
    ]

    # Heap of (time, kind, a, b): kind 0 = arrival of request a; kind 1 =
    # completion candidate for flow a with generation b; kind 2 = delayed
    # join notification for flow a (straggler report).
    heap: list[tuple[float, int, int, int]] = [
        (float(t), 0, j, 0) for j, t in enumerate(trace.times)
    ]
    heapq.heapify(heap)

    def advance(fid: int, t: float) -> None:
        f_remaining[fid] = max(
            f_remaining[fid] - f_rate[fid] * (t - f_last[fid]), 0.0
        )
        f_last[fid] = t

    def rate_of(fid: int) -> float:
        sid = f_server[fid]
        rid = f_request[fid]
        return min(
            float(bandwidths[sid]) / len(server_active[sid]),
            client_bw / len(request_active[rid]),
        )

    def reschedule(fid: int) -> None:
        f_rate[fid] = rate_of(fid)
        f_gen[fid] += 1
        eta = f_last[fid] + f_remaining[fid] / f_rate[fid]
        heapq.heappush(heap, (eta, 1, fid, f_gen[fid]))

    def notify(j: int, t: float, pos: int) -> None:
        """One partition read reported complete to request ``j``'s join.

        ``pos`` is the reporting flow's partition position — when it
        fires the join it is the critical partition for attribution.
        """
        req_remaining[j] -= 1
        if req_remaining[j] == 0:
            if record:
                frames.join(j, pos)
            latency = lc.request_latency(
                float(trace.times[j]),
                t,
                req_post_fraction[j],
                req_post_seconds[j],
                bool(req_miss[j]),
            )
            latencies[j] = latency
            if emit:
                lc.emit_read_done(
                    ts=t,
                    req=j,
                    file_id=int(trace.file_ids[j]),
                    latency=latency,
                )

    while heap:
        t, kind, ident, gen = heapq.heappop(heap)

        if kind == 0:
            j = ident
            fid0 = int(trace.file_ids[j])
            op = keyed.plan(j, fid0)
            if track:
                # Arrivals pop in nondecreasing time, so sim-time
                # window rollover inside the monitor stays monotone.
                lc.popularity.observe(
                    fid0, t=t, servers=op.server_ids, sizes=op.sizes
                )
            op_servers = op.server_ids
            op_sizes = op.sizes
            k = op.parallelism
            sizes = op.sizes.astype(np.float64).copy()
            gfactors = [] if record else None
            if goodput is not None:
                for pos in range(k):
                    g = float(lc.goodput_row(k)[op_servers[pos]])
                    sizes[pos] /= g
                    if gfactors is not None:
                        gfactors.append(g)
            elif gfactors is not None:
                gfactors = [1.0] * k
            if exponential:
                sizes *= keyed.jitter(j, k)
            straggled = False
            if injector.enabled:
                extra, _mult = keyed.report_delays(j, op)
                straggled = bool(np.any(extra > 0.0))
                lc.straggler_reads += straggled
            else:
                extra = np.zeros(k)
            req_remaining[j] = op.join_count
            req_post_fraction[j] = op.post_fraction
            req_post_seconds[j] = op.post_seconds
            req_miss[j] = lc.admit(fid0)

            affected: set[int] = set()
            new_active: list[int] = []
            for pos in range(k):
                sid = int(op_servers[pos])
                fid = len(f_server)
                f_server.append(sid)
                f_request.append(j)
                f_remaining.append(max(float(sizes[pos]), 1e-12))
                f_rate.append(0.0)
                f_last.append(t)
                f_gen.append(0)
                f_extra.append(float(extra[pos]))
                if record:
                    f_pos.append(pos)
                    f_start.append(t)  # overwritten if the flow waits
                    f_bytes.append(float(op_sizes[pos]))
                    f_gfactor.append(float(gfactors[pos]))
                server_bytes[sid] += op_sizes[pos]
                if capacity is None or len(server_active[sid]) < capacity:
                    affected.update(server_active[sid])
                    server_active[sid].add(fid)
                    request_active[j].add(fid)
                    new_active.append(fid)
                else:
                    server_waiting[sid].append(fid)
            if emit:
                lc.emit_read(
                    ts=float(t),
                    req=j,
                    file_id=fid0,
                    op=op,
                    straggled=straggled,
                    missed=bool(req_miss[j]),
                )
            if record:
                frames.request(j, bool(req_miss[j]), straggled)
            # Flows already active on touched servers lose share; bring
            # them to t first, then recompute every rate under the new
            # memberships.
            for fid in affected:
                advance(fid, t)
            for fid in affected:
                reschedule(fid)
            for fid in new_active:
                reschedule(fid)

        elif kind == 1:
            fid = ident
            if gen != f_gen[fid]:
                continue  # stale candidate
            advance(fid, t)
            sid = f_server[fid]
            j = f_request[fid]
            server_active[sid].discard(fid)
            request_active[j].discard(fid)
            f_gen[fid] += 1  # invalidate any residual candidates
            if record:
                frames.partition(
                    j,
                    f_pos[fid],
                    sid,
                    f_bytes[fid],
                    f_start[fid],
                    t,
                    f_extra[fid],
                    f_gfactor[fid],
                )

            if f_extra[fid] > 0.0:
                # Straggler: bandwidth freed now, completion reported late.
                heapq.heappush(heap, (t + f_extra[fid], 2, fid, 0))
            else:
                notify(j, t, f_pos[fid] if record else -1)

            affected = server_active[sid] | request_active[j]
            if capacity is not None and server_waiting[sid]:
                # A slot freed: promote the longest-waiting flow.  Its
                # activation also squeezes its request's flows elsewhere.
                woken = server_waiting[sid].popleft()
                f_last[woken] = t
                if record:
                    f_start[woken] = t
                server_active[sid].add(woken)
                request_active[f_request[woken]].add(woken)
                affected |= server_active[sid]
                affected |= request_active[f_request[woken]]
            for ofid in affected:
                advance(ofid, t)
            for ofid in affected:
                reschedule(ofid)

        else:  # kind == 2: delayed straggler report reaches the client
            notify(f_request[ident], t, f_pos[ident] if record else -1)

    if np.isnan(latencies).any():  # pragma: no cover - engine invariant
        raise AssertionError("some requests never completed")

    if record:
        frames.flush(lc.log)
    return lc.result(latencies, server_bytes)


def simulate_oracle(trace, planner, cluster, config) -> SimulationResult:
    """:func:`~repro.cluster.simulate_reads` on the oracles:
    ``fifo_oracle.run_fifo`` for ``fifo``, :func:`_run_heap` for ``ps`` and
    ``limited(c)``."""
    discipline = resolve_discipline(config.discipline)
    lc = RequestLifecycle(trace, planner, cluster, config, discipline.name)
    if discipline.name == "fifo":
        return run_fifo(lc)
    concurrency = getattr(discipline, "concurrency", math.inf)
    return _run_heap(
        lc, None if concurrency == math.inf else int(concurrency)
    )
