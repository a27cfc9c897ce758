"""Capture a latency-distribution reference for the stream-independent KS test.

The simulator's draws are a pure function of the run seed, so two builds
that key their draws differently produce different latencies even when
both are correct.  This script records what "statistically the same"
means for one build: per scheme, the latency quantiles of one reference
run, plus the largest KS distance between that reference and runs at
five other simulator seeds (the old-vs-old spread).  The tier-1 test
``test_latency_reference.py`` then asks a later build's stream to stay
within that spread of the reference.

The scenario is one Fig. 13 point in the figures' configuration: 500
Zipf(1.05) 100 MB files, 14 req/s, the EC2 cluster, the paper's three
schemes, deterministic jitter with natural stragglers.  Only the
simulator seed varies; the arrival trace is fixed.

Usage (writes JSON to ``--out``)::

    PYTHONPATH=src python tests/test_cluster/latency_reference.py \\
        --discipline fifo --requests 20000 --out tests/data/latency_reference_fifo.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
from dataclasses import replace
from pathlib import Path

import numpy as np

#: Quantile levels kept for the reference: midpoints of ``N_QUANTILES``
#: equal-probability cells, so the table reads as a pseudo-sample.
N_QUANTILES = 2000
REFERENCE_SEED = 23  # the figures' simulator seed
OTHER_SEEDS = (24, 25, 26, 27, 28)
RATE = 14.0
TRACE_SEED = 11


def ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance ``max |F_a - F_b|``."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    x = np.concatenate([a, b])
    fa = np.searchsorted(a, x, side="right") / a.size
    fb = np.searchsorted(b, x, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def quantile_table(latencies: np.ndarray) -> np.ndarray:
    levels = (np.arange(N_QUANTILES) + 0.5) / N_QUANTILES
    return np.quantile(latencies, levels)


def scheme_latencies(
    discipline: str, n_requests: int, seed: int
) -> dict[str, np.ndarray]:
    """Steady-state latencies of each default scheme at one simulator seed."""
    from repro.cluster.simulation import simulate_reads
    from repro.experiments.config import EC2_CLUSTER, sim_config
    from repro.experiments.skew_resilience import default_schemes
    from repro.workloads import paper_fileset, poisson_trace

    pop = paper_fileset(500, size_mb=100, zipf_exponent=1.05, total_rate=RATE)
    trace = poisson_trace(pop, n_requests=n_requests, seed=TRACE_SEED)
    config = replace(
        sim_config(discipline=discipline, seed=seed),
        batch_size=8192 if discipline == "fifo" else None,
    )
    out = {}
    for scheme, factory in default_schemes().items():
        policy = factory(pop, EC2_CLUSTER)
        result = simulate_reads(trace, policy, EC2_CLUSTER, config)
        out[scheme] = result.steady_state_latencies()
    return out


def capture(discipline: str, n_requests: int) -> dict:
    ref = scheme_latencies(discipline, n_requests, REFERENCE_SEED)
    others = [scheme_latencies(discipline, n_requests, s) for s in OTHER_SEEDS]
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True
        ).stdout.strip()
    except OSError:  # pragma: no cover - git missing
        sha = ""
    schemes = {}
    for scheme, lat in ref.items():
        table = quantile_table(lat)
        vs_table = [ks_distance(table, o[scheme]) for o in others]
        vs_sample = [ks_distance(lat, o[scheme]) for o in others]
        schemes[scheme] = {
            "mean": float(lat.mean()),
            "p50": float(np.quantile(lat, 0.5)),
            "p99": float(np.quantile(lat, 0.99)),
            "quantiles": [float(x) for x in table],
            "ks_vs_table": vs_table,
            "ks_two_sample": vs_sample,
            "ks_spread": max(vs_table),
        }
    return {
        "source_commit": sha,
        "discipline": discipline,
        "n_requests": n_requests,
        "rate": RATE,
        "trace_seed": TRACE_SEED,
        "reference_seed": REFERENCE_SEED,
        "other_seeds": list(OTHER_SEEDS),
        "n_quantiles": N_QUANTILES,
        "schemes": schemes,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--discipline", default="fifo")
    ap.add_argument("--requests", type=int, default=20000)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    doc = capture(args.discipline, args.requests)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for scheme, row in doc["schemes"].items():
        print(
            f"{scheme:<22} mean {row['mean']:.4f}s p99 {row['p99']:.4f}s "
            f"spread {row['ks_spread']:.4f} "
            f"(two-sample {max(row['ks_two_sample']):.4f})"
        )


if __name__ == "__main__":
    main()
