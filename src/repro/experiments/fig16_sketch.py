"""Fig. 16 rerun — Algorithm 2 driven by *sketched* popularity.

The paper (and :mod:`repro.experiments.fig16_repartition`) hands the
repartitioner the oracle popularity vector of the shifted workload.  A
deployed SP-Master only sees the request stream, so this variant feeds
the shifted traffic through a live simulation with streaming popularity
observation (:mod:`repro.obs.popularity`) enabled, then plans Algorithm 2
twice — once from the oracle vector and once from the sketch's estimate —
and measures the accuracy gap:

* fidelity of the estimate itself: top-K precision against the true
  hottest files and the online Zipf-exponent estimate vs the ground
  truth fit (acceptance: precision >= 0.9, alpha within 10 %);
* quality of the resulting layouts: the imbalance factor eta (Eq. 15)
  of the oracle-driven and sketch-driven plans, both evaluated under the
  *true* shifted loads, against the stale pre-shift layout;
* responsiveness: a two-phase stream (pre-shift, then shifted) through
  one monitor must raise at least one ``drift`` alert — the trigger a
  live system would repartition on.

Runs on the ``fifo`` discipline: the monitor observes at plan time, so
the discipline only affects queueing, not what the sketch sees, and the
heap-free engine keeps the 30k-request stream cheap.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import SimulationConfig, imbalance_factor, simulate_reads
from repro.core import plan_repartition
from repro.core.placement import placement_server_loads
from repro.core.repartition import repartition_time_parallel
from repro.experiments.config import EC2_CLUSTER
from repro.experiments.registry import experiment
from repro.obs.popularity import (
    PopularityConfig,
    PopularityMonitor,
    publish_popularity,
)
from repro.policies import SPCachePolicy
from repro.workloads import paper_fileset, poisson_trace, shuffled_popularity
from repro.workloads.popularity import zipf_exponent_fit

__all__ = ["run_fig16_sketch"]

PAPER = {
    "topk_precision": ">= 0.9 (acceptance gate)",
    "alpha_rel_err": "<= 0.10 (acceptance gate)",
    "eta_gap": "sketch-driven plan within a few % of oracle",
    "drift_alerts": ">= 1 across the shift",
}


def _drift_detection(
    pop, shifted, n_requests: int, seed: int
) -> tuple[int, int]:
    """(drift, hotspot) alert counts over a pre-shift -> shifted stream.

    Feeds one monitor two phases of the same length, drawn from the
    pre-shift and post-shift popularity vectors — the shuffle that
    Sec. 7.4 calls "a more drastic shift than production traces", so the
    windowed L1/rank-churn detector must notice it.
    """
    rng = np.random.default_rng(seed)
    n_files = pop.n_files
    monitor = PopularityMonitor(
        PopularityConfig(window_requests=1024),
        scheme="drift-demo",
        engine="stream",
    )
    for vec in (pop.popularities, shifted.popularities):
        for fid in rng.choice(n_files, size=n_requests // 2, p=vec):
            monitor.observe(int(fid))
    section = monitor.finalize()
    # Land the alert-bearing section in the run manifest alongside the
    # simulation's, so `repro top` shows the drift the row counts.
    publish_popularity(section)
    drift = sum(1 for a in section["alerts"] if a["kind"] == "drift")
    hot = sum(1 for a in section["alerts"] if a["kind"] == "hotspot")
    return drift, hot


@experiment(paper=PAPER)
def run_fig16_sketch(
    scale: float = 1.0,
    n_files: int = 300,
    n_requests: int = 30000,
    top_k: int = 16,
    seed: int = 0,
) -> list[dict]:
    n_req = max(int(n_requests * scale), 2000)
    pop = paper_fileset(
        n_files, size_mb=50, zipf_exponent=1.05, total_rate=10.0
    )
    policy = SPCachePolicy(pop, EC2_CLUSTER, straggler_aware=True, seed=seed)
    old_ks = policy.partition_counts()
    old_servers = policy.servers_of
    shifted = pop.with_popularities(
        shuffled_popularity(pop.popularities, seed=seed)
    )

    # The stale layout serves the shifted traffic; the monitor watches.
    trace = poisson_trace(shifted, n_requests=n_req, seed=seed + 1)
    config = SimulationConfig(
        discipline="fifo",
        jitter="deterministic",
        seed=seed + 2,
        observers=(PopularityConfig(top_k=top_k, estimate_ids=n_files),),
    )
    result = simulate_reads(trace, policy, EC2_CLUSTER, config)
    section = result.sections["popularity"]

    est = np.asarray(section["estimated_popularity"], dtype=np.float64)
    est_pop = shifted.with_popularities(est)
    plans = {
        "oracle": plan_repartition(
            shifted, EC2_CLUSTER, old_ks, old_servers,
            alpha=policy.alpha, seed=seed,
        ),
        "sketch": plan_repartition(
            est_pop, EC2_CLUSTER, old_ks, old_servers,
            alpha=policy.alpha, seed=seed,
        ),
    }

    # Every layout is judged under the TRUE shifted loads — the sketch
    # only gets to influence the plan, never the yardstick.
    n_servers = EC2_CLUSTER.n_servers

    def eta_of(servers_of) -> float:
        return imbalance_factor(
            placement_server_loads(servers_of, shifted.loads, n_servers)
        )

    eta_stale = eta_of(old_servers)
    eta = {
        name: eta_of(plan.new_servers_of) for name, plan in plans.items()
    }

    true_top = set(
        np.argsort(-shifted.popularities, kind="stable")[:top_k].tolist()
    )
    est_top = {entry["file_id"] for entry in section["top"][:top_k]}
    precision = len(true_top & est_top) / top_k
    alpha_true = zipf_exponent_fit(shifted.popularities)
    alpha_est = section["alpha_est"]
    alpha_rel_err = (
        abs(alpha_est - alpha_true) / alpha_true
        if alpha_est is not None
        else float("inf")
    )
    drift_alerts, hotspot_alerts = _drift_detection(
        pop, shifted, n_req, seed + 3
    )

    return [
        {
            "n_files": n_files,
            "requests": n_req,
            "topk_precision": float(precision),
            "alpha_true": float(alpha_true),
            "alpha_est": float(alpha_est) if alpha_est is not None else None,
            "alpha_rel_err": float(alpha_rel_err),
            "eta_stale": float(eta_stale),
            "eta_oracle": float(eta["oracle"]),
            "eta_sketch": float(eta["sketch"]),
            "eta_gap": float(eta["sketch"] - eta["oracle"]),
            "changed_fraction_oracle": float(plans["oracle"].changed_fraction),
            "changed_fraction_sketch": float(plans["sketch"].changed_fraction),
            "repartition_s_sketch": float(
                repartition_time_parallel(
                    plans["sketch"], shifted, EC2_CLUSTER, old_ks
                )
            ),
            "drift_alerts": int(drift_alerts),
            "hotspot_alerts": int(hotspot_alerts),
        }
    ]
