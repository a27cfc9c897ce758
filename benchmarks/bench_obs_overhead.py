"""Microbenchmark: cost of the observability layer on the read hot path.

Four configurations of the FIFO engine on a 5k-request workload:

* ``reference`` — :func:`uninstrumented_fifo`, a frozen copy of the
  pre-observability engine loop (no tracer check, no metrics), the
  baseline the <10 % no-op overhead budget is measured against;
* ``noop`` — the real engine with the default :class:`~repro.obs.NullSink`
  tracer (one hoisted ``enabled`` check; per-request cost ~0) and no
  timeline collector;
* ``traced`` — the real engine emitting every ``read``/``read_done``
  event into an in-memory ring buffer;
* ``timeline`` — the real engine with a sim-time
  :class:`~repro.obs.TimelineConfig` attached (per-partition record
  buffering plus one finalize pass).

:func:`run_timeline_overhead` additionally times the *enabled* timeline
path on a fig13-like PS workload (the event-heap engine the tail-latency
figures use) against the same run with timelines off — the number quoted
in ``docs/observability.md``.

``tests/test_obs/test_overhead.py`` reuses :func:`uninstrumented_fifo` and
asserts the noop/reference ratio stays under 1.10.
"""

from __future__ import annotations

import time

import numpy as np

from repro.cluster.simulation import SimulationConfig, simulate_reads
from repro.common import ClusterSpec, Gbps
from repro.obs import RingBufferSink, TimelineConfig, Tracer
from repro.workloads import paper_fileset, poisson_trace


def uninstrumented_fifo(trace, planner, cluster, config) -> np.ndarray:
    """The seed FIFO engine loop, frozen without any instrumentation.

    Kept verbatim (minus LRU/goodput memo plumbing shared with the live
    engine) so the overhead comparison isolates exactly the observability
    additions.  Returns the latency vector only.
    """
    from repro.cluster.engine.draws import PLAN, DrawTable, uniforms
    from repro.common import make_rng
    from repro.store.lru import LRUCache

    rng = make_rng(config.seed)
    # Plans read the request's keyed plan uniforms, as in the live engine.
    plan_slots = getattr(planner, "plan_slots", 0)
    plan_rows = DrawTable(
        lambda r, s: uniforms(config.seed, PLAN, r, s), plan_slots
    )
    no_draws = np.empty(0)
    bandwidths = cluster.bandwidths
    n_requests = trace.n_requests

    free_at = np.zeros(cluster.n_servers)
    server_bytes = np.zeros(cluster.n_servers)
    latencies = np.empty(n_requests)

    exponential = config.jitter == "exponential"
    goodput = config.goodput
    injector = config.stragglers
    straggler_mask = (
        injector.straggler_servers(cluster.n_servers, seed=rng)
        if injector.enabled and injector.mode == "per_server"
        else None
    )

    lru = None
    hits = misses = 0
    if config.cache_budget is not None:
        lru = LRUCache(config.cache_budget)

    factor_memo: dict[tuple[int, float], float] = {}

    def goodput_factor(parallelism: int, bandwidth: float) -> float:
        if goodput is None:
            return 1.0
        key = (parallelism, bandwidth)
        cached = factor_memo.get(key)
        if cached is None:
            cached = goodput.factor(parallelism, bandwidth)
            factor_memo[key] = cached
        return cached

    times = trace.times
    file_ids = trace.file_ids
    for j in range(n_requests):
        t = times[j]
        fid = int(file_ids[j])
        op = planner.plan_read(
            fid, plan_rows.row(j, plan_slots) if plan_slots else no_draws
        )
        servers = op.server_ids
        bw = bandwidths[servers]

        if bw.size > 1 and np.ptp(bw) > 0:
            factors = np.array(
                [goodput_factor(op.parallelism, b) for b in bw]
            )
        else:
            factors = goodput_factor(op.parallelism, float(bw[0]))
        service = op.sizes / (bw * factors)
        if exponential:
            service = rng.exponential(service)

        start = np.maximum(t, free_at[servers])
        completion = start + service
        free_at[servers] = completion
        server_bytes[servers] += op.sizes

        reported = completion
        if injector.enabled:
            mult = injector.multipliers(
                servers, straggler_mask=straggler_mask, seed=rng
            )
            reported = completion + (mult - 1.0) * (op.sizes / bw)

        if op.join_count < reported.size:
            join_at = np.partition(reported, op.join_count - 1)[
                op.join_count - 1
            ]
        else:
            join_at = reported.max()
        latency = (join_at - t) * (1.0 + op.post_fraction) + op.post_seconds

        if lru is not None:
            if lru.touch(fid):
                hits += 1
            else:
                misses += 1
                latency *= config.miss_penalty
                lru.put(fid, planner.footprint(fid))
        latencies[j] = latency

    return latencies


def overhead_workload(n_requests: int = 5000, seed: int = 0):
    """The 5k-request FIFO setup both the bench and the smoke test time."""
    from repro.policies import SPCachePolicy

    cluster = ClusterSpec(n_servers=30, bandwidth=Gbps)
    pop = paper_fileset(300, size_mb=100, zipf_exponent=1.05, total_rate=10)
    policy = SPCachePolicy(pop, cluster, seed=seed)
    trace = poisson_trace(pop, n_requests=n_requests, seed=seed + 1)
    return trace, policy, cluster


def paired_times(fns: list, repeats: int = 7) -> list[float]:
    """Minimum wall time of each callable over ``repeats`` rounds.

    The callables are timed *interleaved* (one round times each of them in
    turn), so slow CPU-frequency drift lands on every configuration instead
    of whichever block ran in the hot window; the minimum then discards
    scheduler noise.  Every callable gets one untimed warmup run first, so
    cold costs (planner plan memos, lazy imports) don't skew the first round.
    """
    for fn in fns:
        fn()
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - t0)
    return best


def run_overhead(n_requests: int = 5000, repeats: int = 7):
    trace, policy, cluster = overhead_workload(n_requests)
    base_cfg = SimulationConfig(
        discipline="fifo", jitter="deterministic", seed=2
    )
    ring = RingBufferSink(capacity=4 * n_requests)
    traced_cfg = SimulationConfig(
        discipline="fifo", jitter="deterministic", seed=2, tracer=Tracer(ring)
    )

    timeline_cfg = SimulationConfig(
        discipline="fifo", jitter="deterministic", seed=2,
        timeline=TimelineConfig(),
    )

    def _traced():
        ring.clear()
        simulate_reads(trace, policy, cluster, traced_cfg)

    t_ref, t_noop, t_traced, t_timeline = paired_times(
        [
            lambda: uninstrumented_fifo(trace, policy, cluster, base_cfg),
            lambda: simulate_reads(trace, policy, cluster, base_cfg),
            _traced,
            lambda: simulate_reads(trace, policy, cluster, timeline_cfg),
        ],
        repeats,
    )
    rows = [
        {"config": "reference (frozen seed loop)", "seconds": t_ref,
         "vs_reference": 1.0},
        {"config": "noop sink (default)", "seconds": t_noop,
         "vs_reference": t_noop / t_ref},
        {"config": "ring-buffer tracing", "seconds": t_traced,
         "vs_reference": t_traced / t_ref},
        {"config": "timeline collection", "seconds": t_timeline,
         "vs_reference": t_timeline / t_ref},
    ]
    return rows


def run_timeline_overhead(n_requests: int = 4000, repeats: int = 5):
    """Enabled-timeline cost on a fig13-like PS (event-heap) workload.

    fig13 runs the ``ps`` discipline on the 30-server EC2-like cluster;
    this times that engine with timelines off vs. on (default window
    width) and reports the ratio — the enabled-path number the <25 %
    budget in ``docs/observability.md`` tracks.
    """
    trace, policy, cluster = overhead_workload(n_requests)
    off_cfg = SimulationConfig(discipline="ps", jitter="deterministic", seed=2)
    on_cfg = SimulationConfig(
        discipline="ps", jitter="deterministic", seed=2,
        timeline=TimelineConfig(),
    )
    t_off, t_on = paired_times(
        [
            lambda: simulate_reads(trace, policy, cluster, off_cfg),
            lambda: simulate_reads(trace, policy, cluster, on_cfg),
        ],
        repeats,
    )
    return [
        {"config": "ps, timelines off", "seconds": t_off, "vs_off": 1.0},
        {"config": "ps, timelines on", "seconds": t_on,
         "vs_off": t_on / t_off},
    ]


def test_obs_overhead(benchmark, report):
    rows = benchmark.pedantic(
        run_overhead, rounds=1, iterations=1, warmup_rounds=0
    )
    report(rows, "Observability overhead — 5k-request FIFO simulation")
    by = {r["config"].split(" ")[0]: r for r in rows}
    assert by["noop"]["vs_reference"] < 1.10


if __name__ == "__main__":  # pragma: no cover
    from repro.analysis.tables import print_table

    print_table(
        run_overhead(), "Observability overhead — 5k-request FIFO simulation"
    )
    print()
    print_table(
        run_timeline_overhead(),
        "Timeline overhead — 4k-request PS (fig13-like) simulation",
    )
