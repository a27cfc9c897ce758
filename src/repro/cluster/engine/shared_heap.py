"""Bandwidth-sharing disciplines on array-backed flow state.

Two registered disciplines run on the same engine:

* ``ps`` — full processor sharing with server- and client-side NIC caps.
  A real Alluxio worker serves concurrent reads over parallel TCP streams
  that *share* its NIC, and the reading client's own NIC caps the
  aggregate rate of one request's parallel partition streams.  Fair
  sharing at the server means a 3 MB hot-partition read is never stuck
  behind an entire 100 MB cold transfer; the client-side cap is precisely
  why ever-finer splitting stops paying and the optimal scale factor sits
  at an elbow.
* ``limited(c)`` — at most ``c`` flows are served concurrently per
  server (fair-sharing among themselves), later arrivals wait in a FIFO
  queue.  This is the connection-pool middle ground between the two pure
  models: ``limited(1)`` degenerates to the FIFO discipline and
  ``limited(inf)`` is exactly ``ps``.

Rate model: an *active* flow ``f`` of request ``r`` on server ``s``
receives ``min(B_s / n_s, B_c / n_r)`` bytes/second, where ``n_s`` counts
active flows on the server and ``n_r`` active flows of the request.
(Bottleneck-cap allocation without residual-share redistribution —
slightly conservative relative to full max-min water-filling, identical
when one side clearly bottlenecks.)  Rates change only at flow
activation/completion, so an event-driven engine simulates it exactly.

Flow state lives in fid-indexed numpy columns (:class:`_Flows`), grown
by doubling; a request's flows hold a contiguous fid range in partition
order.  Per-server and per-request active counts replace membership
sets, each paired with its current share ``B_s / n_s`` or ``B_c / n_r``
in a float array the re-rate gathers from.  Requests are planned in
batches (:meth:`RequestLifecycle.batches`) when the first of them
arrives, and a batch's flow rows are filled in one step: arrivals pop in
request order, so its flows take the next contiguous fids.  A flow's
straggler report delay is a flow column; of the rest of a batch only the
columns the partition log reads at the end (servers, nominal bytes,
goodput factors) outlive planning, one segment per batch.

The event heap carries only request arrivals and delayed straggler
reports.  The next flow completion is the ``argmin`` of ``eta`` over the
live fid window ``[lo, n)`` (``lo`` is the oldest unfinished flow;
waiting and finished flows hold ``eta = inf``), so no completion
candidate ever goes stale.

One step retires a completion *instant*, not one flow: the argmin plus
the later flows of its request with ``eta == t`` (SP-Cache's equal,
client-capped partitions finish together).  Fid ranges are contiguous,
so these head the global tie list, and the step keeps the longest prefix
that provably retires at ``t`` one flow at a time: (i) a tied flow's
residue is fixed for the instant and its rate only rises there, so it
stays at ``t`` if ``t + r / rate == t`` at its current rate — ``t`` is
rounded, so a sibling may keep a residue that carries it one ulp past
``t``; (ii) no other active flow below the prefix's last fid that the
prefix touches may round onto ``t`` even at its largest possible rate
``min(B_s, B_c)``, else the argmin goes alone.  Under ``limited(c)`` the
prefix ends before a completion that wakes a waiting flow.  A one-flow
prefix is the per-flow step.

Each step re-rates, in one vectorized call, exactly the flows whose share
can change: active flows on the touched server(s) plus the flows of the
affected request(s).  A tie group runs its bookkeeping in fid order, then
re-rates the union once under the final shares; each flow's last re-rate
in the per-flow loop saw those already, since a later share change would
have touched it again.

Results are bit-for-bit those of the per-flow, per-request heap loop this
engine replaced (kept as the test oracle
``tests/test_cluster/heap_oracle.py``):

* event order — that loop popped ``(time, kind, id)`` tuples, so at equal
  times an arrival (kind 0) came first, then the completion with the
  lowest fid (kind 1), then straggler reports (kind 2).  ``argmin``
  returns the first index on ties, which is the lowest fid, and a tie
  group retires in fid order;
* arithmetic — a re-rate performs the same IEEE-754 double operations
  in the same order, elementwise: ``rem - rate * (t - last)``, then
  ``max(., 0)``, then ``min(B_s / n_s, B_c / n_r)`` (each share the
  same single division the per-flow loop made), then ``t + rem / rate``.

A flow's *effective* bytes fold in the per-connection goodput loss
(``size / g(fan_out)``) and an optional exponential jitter factor.
Straggler injection follows the paper's "sleep the server thread"
semantics: a straggling read's completion is *reported* late to the
fork-join (by ``(m - 1) x`` its nominal transfer time) but the flow frees
its bandwidth on time — a sleeping thread occupies no NIC.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

import numpy as np

from repro.cluster.engine.batch import _SegView
from repro.cluster.engine.lifecycle import RequestLifecycle, SimulationResult
from repro.cluster.engine.registry import register_discipline

__all__ = ["LimitedDiscipline", "PSDiscipline"]

_NONE = np.empty(0, dtype=np.int64)


class _Flows:
    """Fid-indexed flow state in numpy columns, grown by doubling.

    A fresh row is an active flow with rate 0 and no completion scheduled
    (``eta = inf``), so planning a batch writes only ``request``, ``on``,
    ``remaining`` and ``extra`` (the flow's straggler report delay).
    ``on`` is the server a flow holds bandwidth on while active and the
    ``n_servers`` sentinel while it waits or once it is ``done``, so one
    gather tests "active on a touched server".
    ``start`` stays NaN unless a waiting flow is woken (every other flow
    starts at its request's arrival); ``end`` is the completion time.
    """

    _FILL = {
        "request": (np.int64, 0),
        "on": (np.int64, 0),
        "done": (np.bool_, False),
        "remaining": (np.float64, 0.0),
        "extra": (np.float64, 0.0),
        "rate": (np.float64, 0.0),
        "last": (np.float64, 0.0),
        "eta": (np.float64, math.inf),
        "start": (np.float64, math.nan),
        "end": (np.float64, 0.0),
    }

    def __init__(self, capacity: int) -> None:
        self.capacity = 0
        for name, (dtype, _fill) in self._FILL.items():
            setattr(self, name, np.empty(0, dtype=dtype))
        self.reserve(max(capacity, 16))

    def reserve(self, n: int) -> None:
        """Make room for fids ``[0, n)``, keeping existing rows."""
        if n <= self.capacity:
            return
        cap = max(n, 2 * self.capacity)
        for name, (dtype, fill) in self._FILL.items():
            old = getattr(self, name)
            new = np.full(cap, fill, dtype=dtype)
            new[: old.size] = old
            setattr(self, name, new)
        self.capacity = cap

    def residue(self, idx: np.ndarray, t: float) -> np.ndarray:
        """Active flows ``idx``'s remaining bytes at time ``t``, not stored.

        A new or just-woken flow has rate 0, so its ``last`` never matters:
        ``rem - 0 * (t - last)`` is ``rem``.  At ``last == t`` the residue is
        ``rem`` itself, so bringing a flow to ``t`` twice is a no-op.
        """
        rem = self.remaining[idx]
        rem -= self.rate[idx] * (t - self.last[idx])
        np.maximum(rem, 0.0, out=rem)
        return rem

    def rerate(
        self,
        idx: np.ndarray,
        t: float,
        server_share: np.ndarray,
        request_share: np.ndarray,
        rem: np.ndarray | None = None,
    ) -> None:
        """Bring active flows ``idx`` to time ``t`` (their :meth:`residue`,
        unless given as ``rem``), re-rate them under the current shares,
        and set their completion times."""
        if rem is None:
            rem = self.residue(idx, t)
        rate = np.minimum(
            server_share[self.on[idx]], request_share[self.request[idx]]
        )
        self.remaining[idx] = rem
        self.last[idx] = t
        self.rate[idx] = rate
        rem /= rate
        rem += t
        self.eta[idx] = rem

    def rate_new(
        self,
        rows: slice,
        t: float,
        server_shares: np.ndarray,
        request_share: float,
    ) -> None:
        """Rate one request's new flows ``rows`` (all active, rate 0, on
        servers with ``server_shares``): :meth:`rerate`'s ops with the
        no-op advance dropped, on a slice instead of a gather."""
        rate = np.minimum(server_shares, request_share)
        self.last[rows] = t
        self.rate[rows] = rate
        eta = self.eta[rows]
        np.divide(self.remaining[rows], rate, out=eta)
        eta += t


def _run_heap(
    lc: RequestLifecycle, capacity: int | None
) -> SimulationResult:
    """Run the flow engine; ``capacity=None`` means unbounded (pure PS)."""
    bw = [float(b) for b in lc.bandwidths]
    bw_cap = np.array(bw)  # a flow's largest possible rate, with B_c
    client_bw = lc.cluster.effective_client_bandwidth
    n_servers = lc.cluster.n_servers
    n_requests = lc.n_requests
    trace = lc.trace
    stragglers = lc.injector.enabled
    emit = lc.emit
    record = lc.record

    server_bytes = lc.byte_ledger()
    latencies = np.full(n_requests, np.nan)

    # Request bookkeeping, filled a batch at a time; request j's flows
    # are fids [req_f0[j], req_f1[j]) in partition order.
    req_remaining = [0] * n_requests  # reports the join still awaits
    req_post_fraction = [0.0] * n_requests
    req_post_seconds = [0.0] * n_requests
    req_miss = [False] * n_requests
    req_straggled = [False] * n_requests
    # The flow whose report fired request j's join (critical partition).
    req_critical = [-1] * n_requests
    req_f0 = [0] * n_requests
    req_f1 = [0] * n_requests
    # One (servers, nominal bytes, goodput factors) segment per batch, in
    # fid order: what the partition log reads at the end.
    segments: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    flows = _Flows(n_requests)
    n = 0  # flows created so far
    lo = 0  # oldest unfinished fid; everything below it is done
    # Active flow counts, and the shares B_s / n_s and B_c / n_r they
    # give (refreshed whenever a count changes; a zero count's stale
    # share is never read, since no active flow is there).  Waiting flows
    # (finite capacity) queue FIFO per server.
    server_count = [0] * n_servers
    request_count = [0] * n_requests
    server_share = np.zeros(n_servers)
    request_share = np.zeros(n_requests)
    server_waiting: list[deque[int]] = [deque() for _ in range(n_servers)]
    # Reused "server gained or freed a flow" mask indexed by ``flows.on``;
    # the trailing sentinel slot stays False so inactive flows never select.
    touched = np.zeros(n_servers + 1, dtype=bool)

    # Heap of (time, kind, id): kind 0 = arrival of request id; kind 2 =
    # delayed join notification for flow id (straggler report).  Flow
    # completions (kind 1 in the tie order) come from ``flows.eta``.
    heap: list[tuple[float, int, int]] = [
        (float(t), 0, j) for j, t in enumerate(trace.times)
    ]
    heapq.heapify(heap)

    # Arrivals pop in request order (kind 0 sorts before completions at
    # equal times, ties break on the request id, and the trace is
    # time-sorted), so the next batch is planned when its first request
    # arrives and its flows take the next contiguous fids.
    batches = lc.batches()
    batch_end = 0
    f_base = 0  # fid of the current batch's first flow
    b_servers = b_sizes = None

    def notify(j: int, t: float, fid: int) -> None:
        """One partition read reported complete to request ``j``'s join.

        When the report fires the join, flow ``fid`` is the critical
        partition for attribution.
        """
        req_remaining[j] -= 1
        if req_remaining[j] == 0:
            req_critical[j] = fid
            latency = lc.request_latency(
                float(trace.times[j]),
                t,
                req_post_fraction[j],
                req_post_seconds[j],
                req_miss[j],
            )
            latencies[j] = latency
            if emit:
                lc.emit_read_done(
                    ts=t,
                    req=j,
                    file_id=int(trace.file_ids[j]),
                    latency=latency,
                )

    def retire(g: int, j: int, sid: int, t: float, extra_s: float) -> None:
        """Free done flow ``g``'s share of server ``sid`` and report it to
        request ``j``'s join (``extra_s`` late, for a straggler: a
        sleeping thread frees its bandwidth on time)."""
        c = server_count[sid] - 1
        server_count[sid] = c
        if c:
            server_share[sid] = bw[sid] / c
        if extra_s > 0.0:
            heapq.heappush(heap, (t + extra_s, 2, g))
        else:
            notify(j, t, g)

    def coalesce(fid: int, j: int, t: float, lo: int, n: int):
        """The tie group of argmin ``fid`` (request ``j``) at ``t``: the
        longest prefix of the request's flows from ``fid`` on with
        ``eta == t`` that guards (i) and (ii) of the module docstring let
        retire together; ``None`` when that is ``fid`` alone.

        Returns ``(rows, servers, idx, rem)``: the prefix's fids and
        servers, the active flows on those servers and in the request (the
        prefix among them), and their residues at ``t``.
        """
        rows = (flows.eta[fid : req_f1[j]] == t).nonzero()[0]
        rows += fid
        servers = flows.on[rows]
        if capacity is not None:
            # A wake lowers shares: end the prefix before it.
            for k, sid in enumerate(servers.tolist()):
                if server_waiting[sid]:
                    rows, servers = rows[:k], servers[:k]
                    break
        on = flows.on[lo:n]
        a = max(req_f0[j], lo) - lo
        b = req_f1[j] - lo
        while True:
            if rows.size < 2:
                return None
            touched[servers] = True
            sel = touched[on]
            touched[servers] = False
            np.not_equal(on[a:b], n_servers, out=sel[a:b])
            idx = sel.nonzero()[0]
            idx += lo
            rem = flows.residue(idx, t)
            # (i) every tied flow after the argmin stays at t.
            tied = rows[1:]
            pos = np.searchsorted(idx, tied)
            r = rem[pos] / flows.rate[tied]
            r += t
            stay = r == t
            if stay.all():
                break
            k = 1 + int(stay.argmin())
            rows, servers = rows[:k], servers[:k]
        # (ii) idx[:k] lies below the prefix's last fid; beside the prefix
        # it may hold other flows, none of which may round onto t.
        k = int(pos[-1])
        if k >= rows.size:
            below = idx[:k]
            r = rem[:k] / np.minimum(bw_cap[flows.on[below]], client_bw)
            r += t
            if ((r == t) & (flows.eta[below] != t)).any():
                return None
        return rows, servers, idx, rem

    while True:
        if lo < n:
            window = flows.eta[lo:n]
            i = int(window.argmin())
            t_done = float(window[i])
        else:
            t_done = math.inf
        if heap and (
            heap[0][0] < t_done or (heap[0][0] == t_done and heap[0][1] == 0)
        ):
            t, kind, ident = heapq.heappop(heap)
        elif t_done < math.inf:
            t, kind, ident = t_done, 1, lo + i
        else:
            break

        if kind == 0:
            j = ident
            rem = None
            if j >= batch_end:
                j0, batch = next(batches)
                batch_end = j0 + batch.n
                f_base = n
                b_servers = batch.servers
                b_sizes = batch.sizes
                _fill_flows(flows, batch, j0, f_base)
                fids = (batch.req_off + f_base).tolist()
                req_f0[j0:batch_end] = fids[:-1]
                req_f1[j0:batch_end] = fids[1:]
                req_remaining[j0:batch_end] = batch.join_count.tolist()
                req_post_fraction[j0:batch_end] = batch.post_fraction.tolist()
                req_post_seconds[j0:batch_end] = batch.post_seconds.tolist()
                req_straggled[j0:batch_end] = batch.straggled_extra.tolist()
                lc.straggler_reads += int(
                    np.count_nonzero(batch.straggled_extra)
                )
                lc.account_bytes(batch, server_bytes)
                if record:
                    segments.append((b_servers, b_sizes, batch.gfactors))
                del batch  # only the segment outlives planning
            fid0 = int(trace.file_ids[j])
            f0 = req_f0[j]
            n = req_f1[j]
            op_servers = b_servers[f0 - f_base : n - f_base]
            op = _SegView(op_servers, b_sizes[f0 - f_base : n - f_base])
            req_miss[j] = lc.admit(fid0)

            rows = slice(f0, n)
            activated = []
            waiting = []
            shared = False  # a touched server already had an active flow
            for fid, sid in enumerate(op_servers.tolist(), f0):
                c = server_count[sid]
                if capacity is not None and c >= capacity:
                    waiting.append(fid)
                    server_waiting[sid].append(fid)
                    continue
                shared = shared or c > 0
                server_count[sid] = c + 1
                server_share[sid] = bw[sid] / (c + 1)
                activated.append(sid)
            if waiting:
                flows.on[waiting] = n_servers
            request_count[j] = len(activated)
            if activated:
                request_share[j] = client_bw / len(activated)
            if emit:
                lc.emit_read(
                    ts=float(t),
                    req=j,
                    file_id=fid0,
                    op=op,
                    straggled=req_straggled[j],
                    missed=req_miss[j],
                )
            if shared or waiting:
                # Every active flow on a server that gained a flow — the
                # new ones among them — loses share.  (Waiting new flows
                # must stay unrated, which the slice path cannot skip.)
                gained = activated if waiting else op_servers
                touched[gained] = True
                idx = touched[flows.on[lo:n]].nonzero()[0]
                idx += lo
                touched[gained] = False
            else:
                # The new flows have their servers to themselves.
                idx = _NONE
                flows.rate_new(
                    rows,
                    t,
                    server_share[op_servers],
                    client_bw / len(activated),
                )

        elif kind == 1:
            fid = ident
            j = int(flows.request[fid])
            # Does a later flow of the request tie?  (A short slice: the
            # list test is cheaper than a numpy compare.)
            group = None
            if request_count[j] > 1 and t in (
                flows.eta[fid + 1 : req_f1[j]].tolist()
            ):
                group = coalesce(fid, j, t, lo, n)
            if group is None:
                rows = fid
                sid = int(flows.on[fid])
            else:
                rows, servers, idx, rem = group
            flows.done[rows] = True
            flows.on[rows] = n_servers
            flows.eta[rows] = math.inf
            if record:
                flows.end[rows] = t
            if group is None:
                extra_s = float(flows.extra[fid]) if stragglers else 0.0
                retire(fid, j, sid, t, extra_s)
                c = request_count[j] - 1
            else:
                # In fid order, as the per-flow loop retired them.
                for g, sid, extra_s in zip(
                    rows.tolist(), servers.tolist(), flows.extra[rows].tolist()
                ):
                    retire(g, j, sid, t, extra_s)
                c = request_count[j] - rows.size
            request_count[j] = c
            if c:
                request_share[j] = client_bw / c

            if group is not None:
                # One re-rate of the union under the final shares: in the
                # per-flow loop each flow's last re-rate at t already saw
                # them, since a later share change would touch it again.
                keep = flows.on[idx] != n_servers
                idx = idx[keep]
                rem = rem[keep]
            else:
                rem = None
                # The freed server's active flows and the request's own
                # flows gain share.
                woken = -1
                if capacity is not None and server_waiting[sid]:
                    # A slot freed: promote the longest-waiting flow.  Its
                    # activation also squeezes its request's flows
                    # elsewhere.
                    woken = server_waiting[sid].popleft()
                    rw = int(flows.request[woken])
                    flows.on[woken] = sid
                    flows.start[woken] = t
                    c = server_count[sid] + 1
                    server_count[sid] = c
                    server_share[sid] = bw[sid] / c
                    c = request_count[rw] + 1
                    request_count[rw] = c
                    request_share[rw] = client_bw / c
                idx = _NONE
                if server_count[sid] or request_count[j]:
                    # A request's fid range holds only its own flows, so on
                    # it "active on sid or active in the request" is just
                    # "active".
                    on = flows.on[lo:n]
                    sel = on == sid
                    for r in (j, rw) if woken >= 0 else (j,):
                        if request_count[r]:
                            a = max(req_f0[r], lo) - lo
                            b = req_f1[r] - lo
                            np.not_equal(on[a:b], n_servers, out=sel[a:b])
                    idx = sel.nonzero()[0]
                    idx += lo
            if fid == lo:
                while lo < n and flows.done[lo]:
                    lo += 1

        else:  # kind == 2: delayed straggler report reaches the client
            notify(int(flows.request[ident]), t, ident)
            continue

        if idx.size:
            flows.rerate(idx, t, server_share, request_share, rem)

    if np.isnan(latencies).any():  # pragma: no cover - engine invariant
        raise AssertionError("some requests never completed")

    if record and n:
        servers, nominal, gfactors = (
            np.concatenate(col) for col in zip(*segments)
        )
        reqs = flows.request[:n]
        starts = flows.start[:n]
        first = np.array(req_f0)
        all_reqs = np.arange(n_requests)
        lc.log.record_request_frame(all_reqs, req_miss, req_straggled)
        lc.log.record_join_frame(all_reqs, np.array(req_critical) - first)
        lc.log.record_partition_frame(
            reqs,
            np.arange(n) - first[reqs],
            servers,
            nominal,
            np.where(np.isnan(starts), trace.times[reqs], starts),
            flows.end[:n],
            flows.extra[:n],
            gfactors,
        )

    return lc.result(latencies, server_bytes)


def _fill_flows(flows: _Flows, batch, j0: int, f_base: int) -> None:
    """Write a planned batch's flow rows, fids ``f_base`` onward.

    Effective bytes divide the nominal size by the goodput factor, then
    multiply by the jitter (goodput off divides by exactly 1.0, a bitwise
    identity).  The rows stay outside the live window ``[lo, n)`` until
    their requests arrive.
    """
    f_end = f_base + batch.servers.size
    flows.reserve(f_end)
    rows = slice(f_base, f_end)
    flows.request[rows] = np.repeat(np.arange(j0, j0 + batch.n), batch.k)
    flows.on[rows] = batch.servers
    eff = batch.sizes / batch.gfactors
    if batch.jitter is not None:
        eff *= batch.jitter
    np.maximum(eff, 1e-12, out=flows.remaining[rows])
    if batch.extra is not None:
        flows.extra[rows] = batch.extra


class PSDiscipline:
    """Unbounded two-sided processor sharing (the testbed's behaviour)."""

    name = "ps"

    def run(self, lc: RequestLifecycle) -> SimulationResult:
        return _run_heap(lc, capacity=None)


class LimitedDiscipline:
    """At most ``c`` concurrent flows per server, FIFO beyond that."""

    def __init__(self, concurrency: float):
        if concurrency != math.inf:
            if concurrency != int(concurrency) or concurrency < 1:
                raise ValueError(
                    "limited(c) needs an integer concurrency >= 1 or inf, "
                    f"got {concurrency!r}"
                )
        self.concurrency = concurrency
        self.name = f"limited({concurrency:g})"

    def run(self, lc: RequestLifecycle) -> SimulationResult:
        capacity = (
            None if self.concurrency == math.inf else int(self.concurrency)
        )
        return _run_heap(lc, capacity=capacity)


register_discipline(PSDiscipline.name, PSDiscipline)
register_discipline("limited", LimitedDiscipline)
