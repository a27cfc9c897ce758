"""Microbenchmark: cost of streaming popularity observation on the hot path.

Three configurations of the FIFO engine on a 5k-request workload:

* ``off`` — popularity observation disabled (the default): the engine
  pays one hoisted ``lc.track`` check per run;
* ``on`` — a :class:`~repro.obs.PopularityConfig` at the default
  2048-request window: per plan batch the monitor takes the file ids and
  byte accruals one window segment at a time; sketch folding happens ~2x
  over the run;
* ``on, tight windows`` — 256-request windows, folding ~20x, the
  worst realistic cadence (drift detection wants several windows per
  popularity regime, not per second).

``tests/test_obs/test_overhead.py`` reuses :func:`run_popularity_overhead`
and asserts the default-window enabled path stays under the 5 % budget
quoted in ``docs/observability.md``.
"""

from __future__ import annotations

from repro.cluster.simulation import SimulationConfig, simulate_reads
from repro.obs import PopularityConfig

from bench_obs_overhead import overhead_workload, paired_times


def run_popularity_overhead(n_requests: int = 5000, repeats: int = 7):
    trace, policy, cluster = overhead_workload(n_requests)

    def config(popularity=None):
        return SimulationConfig(
            discipline="fifo", jitter="deterministic", seed=2,
            observers=(popularity,) if popularity is not None else (),
        )

    off_cfg = config()
    on_cfg = config(PopularityConfig())
    tight_cfg = config(PopularityConfig(window_requests=256))
    t_off, t_on, t_tight = paired_times(
        [
            lambda: simulate_reads(trace, policy, cluster, off_cfg),
            lambda: simulate_reads(trace, policy, cluster, on_cfg),
            lambda: simulate_reads(trace, policy, cluster, tight_cfg),
        ],
        repeats,
    )
    return [
        {"config": "off (default)", "seconds": t_off, "vs_off": 1.0},
        {"config": "on, 2048-request windows", "seconds": t_on,
         "vs_off": t_on / t_off},
        {"config": "on, 256-request windows", "seconds": t_tight,
         "vs_off": t_tight / t_off},
    ]


def test_popularity_overhead(benchmark, report):
    rows = benchmark.pedantic(
        run_popularity_overhead, rounds=1, iterations=1, warmup_rounds=0
    )
    report(rows, "Popularity observation overhead — 5k-request FIFO")
    assert rows[1]["vs_off"] < 1.05


if __name__ == "__main__":  # pragma: no cover
    from repro.analysis.tables import print_table

    print_table(
        run_popularity_overhead(),
        "Popularity observation overhead — 5k-request FIFO",
    )
