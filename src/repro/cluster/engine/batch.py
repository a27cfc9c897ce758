"""Vectorized batch planning for the request lifecycle.

One scalar simulated request costs a ``plan_read`` call, a goodput
lookup per flow, a few draw-table row slices, and a handful of tiny-array
numpy ops — microseconds of Python overhead that caps runs near
10⁴–10⁵ requests.  :class:`BatchPlanner` lifts the *planning* stations
(the policy's plan, goodput factors, jitter, straggler multipliers) out
of the per-request loop into per-batch array operations, producing a
:class:`PlanBatch` the disciplines consume: the ``fifo`` discipline
schedules whole batches with array arithmetic, while the heap
disciplines (``ps``/``limited``) pop one request's slice per arrival
event.

The contract is **bitwise parity with the scalar path**, not merely
statistical equivalence — the parity suites compare ``float.hex``.  It
holds by construction: every draw is keyed, not streamed
(:mod:`repro.cluster.engine.draws`), so the batch reads exactly the
values the scalar loops read, and every transform is elementwise:

=============== ================= =====================================
draw            key               scalar table → batched gather
=============== ================= =====================================
plan            (request, slot)   ``plan_read(fid, row)`` →
                                  ``plan_reads(fids, rows)``
jitter          (request, flow)   ``-log1p(-u)`` row → flat flows
straggler test  (request, flow)   ``u < p`` row → flat flows
slowdown factor (request, flow)   ``interp(u)`` row → flat hits only
server mask     (0, server)       computed once per run, shared
=============== ================= =====================================

Goodput factors come from one ``(fan-out, server)`` table whose rows are
the lifecycle's memoized :meth:`~RequestLifecycle.goodput_row` values, the
same values the scalar loops index.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.cluster.engine import draws

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.engine.lifecycle import RequestLifecycle

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "BatchPlanner",
    "PlanBatch",
    "get_batch_size",
    "use_batching",
]

#: Requests per planned batch when batching is on without an explicit size.
DEFAULT_BATCH_SIZE = 8192

_local = threading.local()


def get_batch_size() -> int | None:
    """The ambiently installed batch size, or ``None`` (scalar path).

    :class:`~repro.cluster.engine.lifecycle.RequestLifecycle` consults
    this when its config carries no explicit ``batch_size``, so a harness
    (``run_all --batch-size``) can switch whole experiments over without
    threading a knob through every ``SimulationConfig``.
    """
    stack = getattr(_local, "sizes", None)
    return stack[-1] if stack else None


@contextmanager
def use_batching(batch_size: int = DEFAULT_BATCH_SIZE) -> Iterator[int]:
    """Ambiently enable batched planning for the block."""
    if not isinstance(batch_size, int) or isinstance(batch_size, bool):
        raise TypeError(
            f"batch_size must be an int, got {type(batch_size).__name__}"
        )
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    stack = getattr(_local, "sizes", None)
    if stack is None:
        stack = _local.sizes = []
    stack.append(batch_size)
    try:
        yield batch_size
    finally:
        stack.pop()


class _SegView:
    """One request's flow slice, quacking like a ``ReadOp`` for the
    tracing/popularity hooks (which read only these two attributes)."""

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
    first and the heap does not.
    """

    __slots__ = (
        "n", "times", "file_ids", "k", "req_off", "servers", "sizes",
        "bw", "gfactors", "pos", "jitter", "mult", "extra",
        "straggled_mult", "straggled_extra", "join_count",
        "post_fraction", "post_seconds", "has_dup",
    )

    def __init__(
        self,
        *,
        n: int,
        times: np.ndarray,
        file_ids: np.ndarray,
        k: np.ndarray,
        req_off: np.ndarray,
        servers: np.ndarray,
        sizes: np.ndarray,
        bw: np.ndarray,
        gfactors: np.ndarray,
        pos: np.ndarray,
        jitter: np.ndarray | None,
        mult: np.ndarray | None,
        extra: np.ndarray | None,
        straggled_mult: np.ndarray,
        straggled_extra: np.ndarray,
        join_count: np.ndarray,
        post_fraction: np.ndarray,
        post_seconds: np.ndarray,
        has_dup: bool,
    ) -> None:
        self.n = n
        self.times = times
        self.file_ids = file_ids
        self.k = k
        self.req_off = req_off
        self.servers = servers
        self.sizes = sizes
        self.bw = bw
        self.gfactors = gfactors
        self.pos = pos
        self.jitter = jitter
        self.mult = mult
        self.extra = extra
        self.straggled_mult = straggled_mult
        self.straggled_extra = straggled_extra
        self.join_count = join_count
        self.post_fraction = post_fraction
        self.post_seconds = post_seconds
        self.has_dup = has_dup


class BatchPlanner:
    """Plans request batches with the draws the scalar path reads."""

    def __init__(self, lc: "RequestLifecycle") -> None:
        planner = lc.planner
        if not callable(getattr(planner, "plan_reads", None)):
            raise TypeError(
                "batched runs need a planner with plan_reads(file_ids, u); "
                f"{type(planner).__name__} has none"
            )
        self.lc = lc
        self._gtab = np.ones((1, lc.cluster.n_servers))

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
        slots = lc.plan_slots
        u_plan = (
            draws.uniforms(seed, draws.PLAN, reqs[:, None], np.arange(slots))
            if slots
            else None
        )
        plan = lc.planner.plan_reads(file_ids, u_plan)
        k = plan.k
        servers = plan.servers
        sizes = plan.sizes
        req_off = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(k, out=req_off[1:])
        total = int(req_off[-1])
        pos = np.arange(total, dtype=np.int64) - np.repeat(req_off[:-1], k)
        bw = lc.bandwidths[servers]
        k_flow = np.repeat(k, k)
        gtab = self._goodput_table(int(k.max()) if n else 0)
        gfactors = gtab[k_flow, servers]

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
        mult = extra = None
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
            mult=mult,
            extra=extra,
            straggled_mult=straggled_mult,
            straggled_extra=straggled_extra,
            join_count=plan.join_count,
            post_fraction=plan.post_fraction,
            post_seconds=plan.post_seconds,
            has_dup=plan.has_dup,
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
