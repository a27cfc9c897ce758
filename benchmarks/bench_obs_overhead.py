"""Microbenchmark: cost of the observability layer on the read hot path.

Four configurations of the FIFO engine on a 5k-request workload:

* ``reference`` — :func:`uninstrumented_fifo`, a frozen, hook-free copy
  of the batched fifo core (no tracer check, no observer hooks, no
  metrics), the baseline the <10 % no-op overhead budget is measured
  against;
* ``noop`` — the real engine with the default :class:`~repro.obs.NullSink`
  tracer (one hoisted ``enabled`` check; per-request cost ~0) and no
  timeline collector;
* ``traced`` — the real engine emitting every ``read``/``read_done``
  event into an in-memory ring buffer;
* ``timeline`` — the real engine with a sim-time
  :class:`~repro.obs.TimelineConfig` attached (per-partition record
  buffering plus one finalize pass).

:func:`run_observer_overhead` times one observer's *enabled* paths
against the same run with it off (:data:`OBSERVER_VARIANTS`): the
popularity monitor and the SLO evaluator on this FIFO workload; causal
collection and timelines on the ``ps`` event-heap engine the
tail-latency figures use — the numbers quoted in
``docs/observability.md``.

``tests/test_obs/test_overhead.py`` reuses :func:`uninstrumented_fifo`,
asserts the noop/reference ratio stays under 1.10, and gates each
observer's default-config row of :func:`run_observer_overhead`.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cluster.simulation import SimulationConfig, simulate_reads
from repro.common import ClusterSpec, Gbps
from repro.obs import (
    CausalConfig,
    PopularityConfig,
    RingBufferSink,
    TimelineConfig,
    Tracer,
    default_slo_config,
    parse_slo,
)
from repro.workloads import paper_fileset, poisson_trace


def uninstrumented_fifo(trace, planner, cluster, config) -> np.ndarray:
    """The batched FIFO engine core, frozen without any instrumentation.

    Built from the two layers the live ``fifo`` discipline runs on —
    :meth:`BatchPlanner.plan_batch` and :func:`fifo_schedule_grouped` —
    with the same byte ledger, joins and LRU, but no tracer check, no
    observer hooks, no metrics flush and no result object, so the
    noop/reference ratio isolates what the observability layer adds.
    Returns the latency vector only.
    """
    from repro.cluster.engine import DEFAULT_BATCH_SIZE, RequestLifecycle
    from repro.cluster.engine.batch import fifo_schedule_grouped
    from repro.store.lru import LRUCache

    # The lifecycle is only the planner's draw context here.
    plan = RequestLifecycle(
        trace, planner, cluster, config, "fifo"
    ).batch_planner.plan_batch
    size = config.batch_size or DEFAULT_BATCH_SIZE
    n_servers = cluster.n_servers
    narrow = np.min_scalar_type(max(n_servers - 1, 1))
    free_at = np.zeros(n_servers)
    server_bytes = np.zeros(n_servers)
    latencies = np.empty(trace.n_requests)
    lru = (
        LRUCache(config.cache_budget)
        if config.cache_budget is not None
        else None
    )

    for j0 in range(0, trace.n_requests, size):
        batch = plan(
            trace.times[j0 : j0 + size], trace.file_ids[j0 : j0 + size], j0
        )
        servers = batch.servers
        service = batch.sizes / (batch.bw * batch.gfactors)
        if batch.jitter is not None:
            service = service * batch.jitter
        np.add.at(server_bytes, servers, batch.sizes)

        order = np.argsort(servers.astype(narrow), kind="stable")
        ss = servers[order]
        firsts = np.flatnonzero(np.concatenate(([True], ss[1:] != ss[:-1])))
        present = ss[firsts]
        _start, cp, free = fifo_schedule_grouped(
            np.repeat(batch.times, batch.k)[order],
            service[order],
            np.append(firsts, ss.size),
            free_at[present],
            need_start=False,
        )
        reported = np.empty(servers.size)
        reported[order] = cp
        free_at[present] = free
        if batch.extra is not None:
            reported += batch.extra

        off = batch.req_off
        join_at = np.maximum.reduceat(reported, off[:-1])
        for b in np.flatnonzero(batch.join_count < batch.k).tolist():
            jc = int(batch.join_count[b])
            join_at[b] = np.partition(reported[off[b] : off[b + 1]], jc - 1)[
                jc - 1
            ]
        lat = (join_at - batch.times) * (
            1.0 + batch.post_fraction
        ) + batch.post_seconds
        if lru is not None:
            for b, fid in enumerate(batch.file_ids.tolist()):
                if not lru.touch(fid):
                    lru.put(fid, planner.footprint(fid))
                    lat[b] *= config.miss_penalty
        latencies[j0 : j0 + batch.n] = lat

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
        observers=(TimelineConfig(),),
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
        {"config": "reference (frozen batched core)", "seconds": t_ref,
         "vs_reference": 1.0},
        {"config": "noop sink (default)", "seconds": t_noop,
         "vs_reference": t_noop / t_ref},
        {"config": "ring-buffer tracing", "seconds": t_traced,
         "vs_reference": t_traced / t_ref},
        {"config": "timeline collection", "seconds": t_timeline,
         "vs_reference": t_timeline / t_ref},
    ]
    return rows


#: Each observer's engine and its enabled variants, timed after ``off``:
#: ``(label, observers, whether span trees go to a ring buffer)``.  The
#: first variant is the default config the overhead budgets gate.
OBSERVER_VARIANTS = {
    "popularity": ("fifo", [
        ("on, 2048-request windows", (PopularityConfig(),), False),
        # Folding ~20x per run: the worst realistic cadence (drift
        # detection wants several windows per popularity regime).
        ("on, 256-request windows",
         (PopularityConfig(window_requests=256),), False),
    ]),
    "slo": ("fifo", [
        ("on, default objectives", (default_slo_config(),), False),
        # Breaching objectives: the finalize pass also walks alert
        # open/close transitions.
        ("on, breaching objectives",
         (parse_slo("p99<0.001,imbalance<1.5"),), False),
    ]),
    "causal": ("ps", [
        ("on", (CausalConfig(),), False),
        # Span trees into a ring buffer: the ``repro trace --causal`` path.
        ("on + span trees", (CausalConfig(),), True),
    ]),
    "timeline": ("ps", [("on", (TimelineConfig(),), False)]),
}


def run_observer_overhead(
    observer: str, n_requests: int = 5000, repeats: int = 7
) -> list[dict]:
    """``observer`` off, then each of its :data:`OBSERVER_VARIANTS` on,
    timed interleaved (:func:`paired_times`) on :func:`overhead_workload`;
    each row's ``vs_off`` is its time over the ``off`` row's."""
    discipline, variants = OBSERVER_VARIANTS[observer]
    variants = [("off", (), False), *variants]
    trace, policy, cluster = overhead_workload(n_requests)
    configs = [
        SimulationConfig(
            discipline=discipline, jitter="deterministic", seed=2,
            observers=observers,
            tracer=Tracer(RingBufferSink(capacity=1 << 20)) if spans else None,
        )
        for _label, observers, spans in variants
    ]
    times = paired_times(
        [
            lambda c=c: simulate_reads(trace, policy, cluster, c)
            for c in configs
        ],
        repeats,
    )
    return [
        {"config": f"{discipline}, {observer} {label}", "seconds": t,
         "vs_off": t / times[0]}
        for (label, _observers, _spans), t in zip(variants, times)
    ]


#: The enabled-path bench gates: observer, requests, repeats, and the
#: paired passes whose best ``vs_off`` must meet the 5 % budget.
OBSERVER_GATES = [
    ("popularity", 5000, 7, 1),
    ("slo", 5000, 7, 1),
    ("causal", 4000, 5, 4),
]


def test_obs_overhead(benchmark, report):
    rows = benchmark.pedantic(
        run_overhead, rounds=1, iterations=1, warmup_rounds=0
    )
    report(rows, "Observability overhead — 5k-request FIFO simulation")
    by = {r["config"].split(" ")[0]: r for r in rows}
    assert by["noop"]["vs_reference"] < 1.10


@pytest.mark.parametrize(
    "observer, n_requests, repeats, attempts", OBSERVER_GATES,
    ids=[gate[0] for gate in OBSERVER_GATES],
)
def test_observer_overhead(
    benchmark, report, observer, n_requests, repeats, attempts
):
    def best_of():
        # Scheduler noise only inflates a ratio: keep the best pass,
        # stopping once the budget is met.
        best = None
        for _ in range(attempts):
            rows = run_observer_overhead(observer, n_requests, repeats)
            if best is None or rows[1]["vs_off"] < best[1]["vs_off"]:
                best = rows
            if best[1]["vs_off"] < 1.05:
                break
        return best

    rows = benchmark.pedantic(best_of, rounds=1, iterations=1, warmup_rounds=0)
    report(rows, f"{observer} overhead — {n_requests}-request simulation")
    assert rows[1]["vs_off"] < 1.05


if __name__ == "__main__":  # pragma: no cover
    from repro.analysis.tables import print_table

    print_table(
        run_overhead(), "Observability overhead — 5k-request FIFO simulation"
    )
    for observer, n_requests, repeats, _attempts in [
        *OBSERVER_GATES, ("timeline", 4000, 5, 1)
    ]:
        print()
        print_table(
            run_observer_overhead(observer, n_requests, repeats),
            f"{observer} overhead — {n_requests}-request simulation",
        )
