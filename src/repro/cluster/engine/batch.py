"""Batch planning: the request lifecycle's only planning path.

:class:`BatchPlanner` plans a contiguous run of requests at once — the
policy's plans, goodput factors, jitter and straggler multipliers — with
per-batch array operations, producing a :class:`PlanBatch` in CSR
layout.  Disciplines pull batches in arrival order from
:meth:`~repro.cluster.engine.lifecycle.RequestLifecycle.batches`: the
``fifo`` discipline schedules whole batches with array arithmetic, while
the heap disciplines (``ps``/``limited``) take one request's slice per
arrival event.

Every draw is keyed, not streamed (:mod:`repro.cluster.engine.draws`), so
a request's values do not depend on the batch it lands in, and batch size
is a pure tuning knob:

=============== ================= =====================================
draw            key               value per flow
=============== ================= =====================================
plan            (request, slot)   ``plan_reads(fids, rows)``
jitter          (request, flow)   ``-log1p(-u)``
straggler test  (request, flow)   ``u < p``
slowdown factor (request, flow)   ``interp(u)``, drawn at hits only
server mask     (0, server)       computed once per run, shared
=============== ================= =====================================

Goodput factors come from one ``(fan-out, server)`` table whose rows are
the lifecycle's memoized :meth:`~RequestLifecycle.goodput_row` values.
A planner without ``plan_reads`` is planned through its ``plan_read``,
one request at a time, packed with :meth:`ReadBatch.from_ops`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.client import ReadBatch
from repro.cluster.engine import draws

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.engine.lifecycle import RequestLifecycle

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "BatchPlanner",
    "PlanBatch",
]

#: Requests per planned batch unless ``SimulationConfig.batch_size`` says
#: otherwise.
DEFAULT_BATCH_SIZE = 8192


class _SegView:
    """One request's flow slice, quacking like a ``ReadOp`` for the
    tracing hooks (which read only these two attributes)."""

    __slots__ = ("server_ids", "sizes")

    def __init__(self, server_ids: np.ndarray, sizes: np.ndarray) -> None:
        self.server_ids = server_ids
        self.sizes = sizes


class PlanBatch:
    """Planned fork-joins for a contiguous run of requests, CSR layout.

    Request ``b`` of the batch owns flows
    ``req_off[b]:req_off[b + 1]`` of the flow-major arrays.  ``sizes``
    are the *nominal* partition bytes (what the server serves and the
    byte ledger counts); disciplines fold ``gfactors``/``jitter`` into
    effective service themselves, because fifo divides by bandwidth
    first and the heap does not.  ``extra`` is each flow's straggler
    report delay (``None`` without stragglers).
    """

    __slots__ = (
        "n", "times", "file_ids", "k", "req_off", "servers", "sizes",
        "bw", "gfactors", "pos", "jitter", "extra",
        "straggled_mult", "straggled_extra", "join_count",
        "post_fraction", "post_seconds",
    )

    def __init__(self, **fields) -> None:
        for name in self.__slots__:
            setattr(self, name, fields[name])


class BatchPlanner:
    """Plans request batches from the run's keyed draws."""

    def __init__(self, lc: "RequestLifecycle") -> None:
        planner = lc.planner
        self.lc = lc
        #: ``PLAN`` uniforms one request's plan reads.
        self.plan_slots = int(getattr(planner, "plan_slots", 0))
        plan_reads = getattr(planner, "plan_reads", None)
        self._plan_reads = (
            plan_reads if callable(plan_reads) else self._plan_each
        )
        self._gtab = np.ones((1, lc.cluster.n_servers))

    def _plan_each(
        self, file_ids: np.ndarray, u: np.ndarray | None
    ) -> ReadBatch:
        """``plan_read`` per request, for planners without ``plan_reads``."""
        plan_read = self.lc.planner.plan_read
        rows = u if u is not None else np.empty((file_ids.size, 0))
        return ReadBatch.from_ops(
            [plan_read(f, row) for f, row in zip(file_ids.tolist(), rows)]
        )

    def _goodput_table(self, k_max: int) -> np.ndarray:
        """``(fan-out, server)`` goodput factors, rows ``0 .. k_max``."""
        if self._gtab.shape[0] <= k_max:
            rows = [self._gtab]
            rows += [
                self.lc.goodput_row(k)[None, :]
                for k in range(self._gtab.shape[0], k_max + 1)
            ]
            self._gtab = np.concatenate(rows)
        return self._gtab

    def plan_batch(
        self, times: np.ndarray, file_ids: np.ndarray, j0: int
    ) -> PlanBatch:
        """Plan requests ``j0 .. j0 + n - 1`` from their keyed draws."""
        times = np.ascontiguousarray(times, dtype=np.float64)
        file_ids = np.ascontiguousarray(file_ids, dtype=np.int64)
        lc = self.lc
        seed = lc.seed
        n = int(times.size)
        reqs = np.arange(j0, j0 + n)
        slots = self.plan_slots
        u_plan = (
            draws.uniforms(seed, draws.PLAN, reqs[:, None], np.arange(slots))
            if slots
            else None
        )
        plan = self._plan_reads(file_ids, u_plan)
        k = plan.k
        servers = plan.servers
        sizes = plan.sizes
        req_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(k, out=req_off[1:])
        total = int(req_off[-1])
        pos = np.arange(total, dtype=np.int64) - np.repeat(req_off[:-1], k)
        bw = lc.bandwidths[servers]
        gtab = self._goodput_table(int(k.max()) if n else 0)
        gfactors = gtab[np.repeat(k, k), servers]

        def flow_uniforms(purpose: int, sel=None) -> np.ndarray:
            keys = np.repeat(draws.request_keys(seed, purpose, reqs), k)
            if sel is None:
                return draws.slot_uniforms(keys, pos)
            return draws.slot_uniforms(keys[sel], pos[sel])

        jitter = (
            draws.exponential(flow_uniforms(draws.JITTER))
            if lc.exponential
            else None
        )
        extra = None
        if lc.injector.enabled:
            profile = lc.injector.profile
            if lc.per_server:
                hit = lc.straggler_mask[servers]
            else:
                hit = flow_uniforms(draws.STRAGGLE) < profile.probability
            mult = np.ones(total)
            mult[hit] = profile.factor_at(flow_uniforms(draws.FACTOR, hit))
            extra = (mult - 1.0) * (sizes / bw)
            straggled_mult = np.logical_or.reduceat(mult > 1.0, req_off[:-1])
            straggled_extra = np.logical_or.reduceat(extra > 0.0, req_off[:-1])
        else:
            straggled_mult = np.zeros(n, dtype=bool)
            straggled_extra = np.zeros(n, dtype=bool)

        return PlanBatch(
            n=n,
            times=times,
            file_ids=file_ids,
            k=k,
            req_off=req_off,
            servers=servers,
            sizes=sizes,
            bw=bw,
            gfactors=gfactors,
            pos=pos,
            jitter=jitter,
            extra=extra,
            straggled_mult=straggled_mult,
            straggled_extra=straggled_extra,
            join_count=plan.join_count,
            post_fraction=plan.post_fraction,
            post_seconds=plan.post_seconds,
        )


def fifo_schedule(
    t: np.ndarray, svc: np.ndarray, free: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Exact FIFO schedule of one server's flow sequence.

    ``t``/``svc`` are one server's arrival and service times in request
    order; ``free`` is the server's clock entering the batch.  Returns
    ``(start, completion, free_out)`` bitwise-equal to the scalar
    recurrence ``start = max(t, free); free = start + svc``.

    The recurrence is a max-plus scan — the idle/busy alternation is
    data-dependent, so any blocked numpy formulation degenerates to one
    ufunc dispatch per (typically short) run, ~40µs each.  A tight loop
    over plain Python floats performs the *identical* IEEE-754 ops
    (CPython floats are doubles) at ~100ns per flow, which is faster
    than ufunc dispatch until runs average thousands of flows, and stays
    bitwise exact by construction.
    """
    start = []
    comp = []
    append_s = start.append
    append_c = comp.append
    for tv, sv in zip(t.tolist(), svc.tolist()):
        s = tv if tv >= free else free
        free = s + sv
        append_s(s)
        append_c(free)
    return np.asarray(start), np.asarray(comp), free


def fifo_schedule_grouped(
    t: np.ndarray,
    svc: np.ndarray,
    group_off: np.ndarray,
    free_in: np.ndarray,
    need_start: bool = True,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Exact FIFO schedules for many servers' flow sequences at once.

    ``t``/``svc`` hold the concatenation of per-server flow segments in
    request order (``group_off``, length ``G + 1``, delimits them);
    ``free_in[g]`` is segment ``g``'s server clock entering the batch.
    Returns ``(start, completion, free_out)`` bitwise-equal to running
    :func:`fifo_schedule` over each segment separately; with
    ``need_start=False`` the start array is skipped (``None``) — the
    fast path only consumes completions.

    The scalar recurrence ``s = max(t, free); free = s + svc`` is a
    max-plus scan, so it has no direct ufunc — but its *structure* (the
    partition into idle-started busy runs) can be proposed cheaply with
    an approximate algebraic scan, after which the completions inside a
    run are plain left-to-right additions:

    1. propose run boundaries from ``free_j ≈ S_j + max_i (t_i - P_i)``
       (prefix sums ``S``/``P`` of ``svc``), a rounded rearrangement of
       the exact clock good enough to classify idle vs busy except
       within a few ulps of a tie;
    2. compute completions *exactly*: each run's chain
       ``comp_j = comp_{j-1} + svc_j`` is a row of a length-bucketed
       padded matrix under ``np.add.accumulate`` — per row strictly
       sequential, the identical IEEE-754 adds the scalar loop performs;
    3. verify every proposed boundary against the exact completions
       (``t_j >= comp_{j-1}``) and recompute any mismatching group
       suffix with the scalar loop.  Mismatches require the approximate
       and exact clocks to straddle an arrival, which continuous
       arrival processes essentially never produce — the repair path is
       a correctness backstop, not a steady-state cost.
    """
    n = t.size
    free_out = np.asarray(free_in, dtype=np.float64).copy()
    if n == 0:
        empty = np.empty(0)
        return (empty if need_start else None), np.empty(0), free_out
    gstart = group_off[:-1]
    gend = group_off[1:]
    nonempty = gend > gstart
    gs_pos = gstart[nonempty]
    fi = free_out[nonempty]

    # -- 1. approximate clock -> proposed idle-run boundaries ----------
    S = np.cumsum(svc)
    A = t - S
    A += svc  # A = t - P with P the exclusive service prefix
    # Seed each segment with its entering clock, then run the max scan
    # segment-by-segment: the group count is tiny, so in-place
    # accumulates over views beat any single-pass segmentation trick.
    A[gs_pos] = np.maximum(A[gs_pos], fi - (S[gs_pos] - svc[gs_pos]))
    for lo, hi in zip(group_off[:-1].tolist(), group_off[1:].tolist()):
        if hi > lo:
            np.maximum.accumulate(A[lo:hi], out=A[lo:hi])
    A += S  # approximate free clock after each flow
    idle = np.empty(n, dtype=bool)
    idle[0] = True
    np.greater_equal(t[1:], A[:-1], out=idle[1:])
    idle[gs_pos] = True  # segment starts are forced run boundaries

    # -- 2. exact completions per proposed run -------------------------
    starts_idx = np.flatnonzero(idle)
    run_len = np.diff(starts_idx, append=n)
    s0 = t[starts_idx].copy()
    # Segment-start runs seed from max(t, free_in): a selection between
    # two exact values, no arithmetic.
    gs_run = np.searchsorted(starts_idx, gs_pos)
    tg = t[gs_pos]
    s0[gs_run] = np.where(tg >= fi, tg, fi)
    comp0 = s0 + svc[starts_idx]

    comp = np.empty(n)
    comp[starts_idx] = comp0
    n_runs = starts_idx.size
    max_len = int(run_len.max())
    if max_len > 1:
        # Column stepping: sort runs by length (descending), then march
        # column c across all still-active runs at once — each round is
        # one vectorized ``comp[p] = comp[p-1] + svc[p]``, the identical
        # chained adds the scalar loop performs.  Once only a handful of
        # long tails remain, finish them in a single padded
        # ``add.accumulate`` (rows seeded from the last done column).
        order_r = np.argsort(
            run_len.astype(np.min_scalar_type(max_len)), kind="stable"
        )[::-1]
        starts_desc = starts_idx[order_r]
        cum = np.cumsum(np.bincount(run_len, minlength=max_len + 1))
        c = 1
        tail = 256
        while c < max_len:
            cnt = n_runs - int(cum[c])
            if cnt <= tail:
                break
            p = starts_desc[:cnt] + c
            comp[p] = comp[p - 1] + svc[p]
            c += 1
        if c < max_len:
            cnt = n_runs - int(cum[c])
            if cnt:
                a = starts_desc[:cnt]
                rem = run_len[order_r[:cnt]] - (c - 1)
                base = a + (c - 1)
                cols = np.arange(max_len - (c - 1))
                pos = base[:, None] + cols[None, :]
                valid = cols[None, :] < rem[:, None]
                vals = np.where(valid, svc[np.minimum(pos, n - 1)], 0.0)
                vals[:, 0] = comp[base]
                acc = np.add.accumulate(vals, axis=1)
                comp[pos[valid]] = acc[valid]
    start: np.ndarray | None = None
    if need_start:
        start = np.empty(n)
        start[1:] = comp[:-1]
        start[starts_idx] = s0
    free_out[nonempty] = comp[gend[nonempty] - 1]

    # -- 3. exact verification + scalar repair of any wrong suffix -----
    mism = np.empty(n - 1, dtype=bool) if n > 1 else np.empty(0, dtype=bool)
    if n > 1:
        np.not_equal(t[1:] >= comp[:-1], idle[1:], out=mism)
        mism[gs_pos[gs_pos > 0] - 1] = False
    if mism.any():
        bad = np.flatnonzero(mism) + 1
        bad_groups = np.unique(
            np.searchsorted(group_off, bad, side="right") - 1
        )
        for g in bad_groups.tolist():
            lo, hi = int(group_off[g]), int(group_off[g + 1])
            in_g = bad[(bad >= lo) & (bad < hi)]
            if in_g.size == 0:
                continue
            m = int(in_g[0])
            st, cp, free = fifo_schedule(t[m:hi], svc[m:hi], float(comp[m - 1]))
            if start is not None:
                start[m:hi] = st
            comp[m:hi] = cp
            free_out[g] = free
    return start, comp, free_out
