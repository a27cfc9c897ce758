"""Microbenchmark: cost of SLO evaluation on the simulation hot path.

Three configurations of the FIFO engine on a 5k-request workload:

* ``off`` — SLO evaluation disabled (the default): the engine pays one
  ``None`` check per request for the miss buffer;
* ``on`` — the :func:`~repro.obs.default_slo_config` objective set: per
  request the lifecycle appends one miss flag; everything else (window
  bucketing via ``np.bincount``, trailing burn-rate sums via cumsum)
  happens once at finalize time;
* ``on, tight`` — a deliberately breaching ``p99<1ms`` objective with
  4x the window resolution, so the finalize pass also walks alert
  open/close transitions (the worst realistic cadence).

``tests/test_obs/test_overhead.py`` reuses :func:`run_slo_overhead` and
asserts the default enabled path stays under the 5 % budget quoted in
``docs/observability.md``.
"""

from __future__ import annotations

from repro.cluster.simulation import SimulationConfig, simulate_reads
from repro.obs import SLOConfig, default_slo_config, parse_slo

from bench_obs_overhead import overhead_workload, paired_times


def run_slo_overhead(n_requests: int = 5000, repeats: int = 7):
    trace, policy, cluster = overhead_workload(n_requests)

    def config(slo=None):
        return SimulationConfig(
            discipline="fifo", jitter="deterministic", seed=2,
            observers=(slo,) if slo is not None else (),
        )

    off_cfg = config()
    on_cfg = config(default_slo_config())
    tight_cfg = config(
        SLOConfig(
            objectives=parse_slo("p99<0.001,imbalance<1.5").objectives,
            target_windows=96,
        )
    )
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
        {"config": "on, default objectives", "seconds": t_on,
         "vs_off": t_on / t_off},
        {"config": "on, breaching + 96 windows", "seconds": t_tight,
         "vs_off": t_tight / t_off},
    ]


def test_slo_overhead(benchmark, report):
    rows = benchmark.pedantic(
        run_slo_overhead, rounds=1, iterations=1, warmup_rounds=0
    )
    report(rows, "SLO evaluation overhead — 5k-request FIFO")
    assert rows[1]["vs_off"] < 1.05


if __name__ == "__main__":  # pragma: no cover
    from repro.analysis.tables import print_table

    print_table(
        run_slo_overhead(),
        "SLO evaluation overhead — 5k-request FIFO",
    )
