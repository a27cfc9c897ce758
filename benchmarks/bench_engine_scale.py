"""Engine throughput at scale.

A fig13-style workload (the Sec. 7.3 500-file Zipf population under
SP-Cache with natural per-read stragglers) pushed to ``--requests``
arrivals through the fifo discipline, fed by a lazy
:class:`~repro.workloads.streams.PoissonStream` so arrivals never
materialize up front; the bench reports requests/sec and peak RSS.

``--discipline ps`` times the figures' engine instead: the same workload
on processor sharing (the ``ps`` flow engine), ``--requests`` arrivals.
``--policy`` swaps SP-Cache for one of the redundancy baselines at the
paper's settings — EC-Cache (10, 14) with late binding, or 4-replica
top-10 % selective replication.  Every run plans requests in batches of
``--batch-size``.

Run directly::

    python benchmarks/bench_engine_scale.py --requests 1000000
    python benchmarks/bench_engine_scale.py --discipline ps --requests 4000
    python benchmarks/bench_engine_scale.py --policy ec-cache --requests 20000

Writes ``BENCH_<timestamp>_engine_scale.json`` in the working directory
(same family as the ``BENCH_<ts>.json`` archives the pytest-benchmark
conftest emits; ``wall_seconds`` keeps the shared shape).  With
``--baseline PATH`` the run becomes a perf gate: it exits non-zero when
measured requests/sec fall below ``(1 - tolerance)`` of the baseline's —
the CI job pins ``benchmarks/baseline_engine_scale.json`` (a deliberately
conservative floor, so only real regressions trip it).  Each discipline
and policy gates against its own floor in the baseline file: the
top-level block is SP-Cache on fifo, ``"ps"`` SP-Cache on ps, and a
policy's name (``"ec-cache"``) that policy on fifo.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.cluster.simulation import SimulationConfig, simulate_reads
from repro.cluster.stragglers import StragglerInjector
from repro.common import ClusterSpec, Gbps
from repro.obs.runinfo import git_sha, peak_rss_bytes
from repro.policies import (
    ECCachePolicy,
    SelectiveReplicationPolicy,
    SPCachePolicy,
)
from repro.workloads import PoissonStream, paper_fileset

DEFAULT_REQUESTS = 1_000_000
DEFAULT_BATCH = 4096
DEFAULT_TOLERANCE = 0.3

#: The benched policies at the paper's settings.
POLICIES = {
    "sp-cache": lambda pop, cl: SPCachePolicy(pop, cl, seed=0),
    "ec-cache": lambda pop, cl: ECCachePolicy(pop, cl, k=10, n=14, seed=0),
    "selective-replication": lambda pop, cl: SelectiveReplicationPolicy(
        pop, cl, top_fraction=0.10, replicas=4, seed=0
    ),
}


def _workload(rate: float, policy: str = "sp-cache"):
    cluster = ClusterSpec(n_servers=30, bandwidth=Gbps)
    pop = paper_fileset(
        500, size_mb=100.0, zipf_exponent=1.05, total_rate=rate
    )
    return pop, cluster, POLICIES[policy](pop, cluster)


def _config(batch_size: int, discipline: str) -> SimulationConfig:
    return SimulationConfig(
        discipline=discipline,
        jitter="deterministic",
        stragglers=StragglerInjector.natural(),
        seed=2,
        batch_size=batch_size,
    )


def _timed_run(pop, cluster, policy, n_requests, batch_size, discipline):
    stream = PoissonStream(pop, n_requests=n_requests, seed=1)
    start = time.perf_counter()
    result = simulate_reads(
        stream, policy, cluster, _config(batch_size, discipline)
    )
    wall = time.perf_counter() - start
    assert result.n_requests == n_requests
    return wall, result


def run_engine_scale(
    n_requests: int = DEFAULT_REQUESTS,
    batch_size: int = DEFAULT_BATCH,
    rate: float = 20.0,
    discipline: str = "fifo",
    policy: str = "sp-cache",
) -> dict:
    """One timed run of a discipline and policy; returns the doc."""
    pop, cluster, planner = _workload(rate, policy)
    doc = {
        "schema_version": 1,
        "bench": "engine_scale",
        "created_unix": time.time(),
        "git_sha": git_sha(),
        "discipline": discipline,
        "policy": policy,
        "n_requests": n_requests,
    }

    wall, _ = _timed_run(
        pop, cluster, planner, n_requests, batch_size, discipline
    )
    doc.update(
        batch_size=batch_size,
        # Shared shape with the conftest archives (CI asserts on it).
        wall_seconds={"engine_scale": wall},
        requests_per_sec={"vectorized": n_requests / wall},
        peak_rss_bytes=peak_rss_bytes(),
    )
    return doc


def gate(
    doc: dict, baseline: dict, tolerance: float
) -> tuple[str, float, float]:
    """``(label, measured, floor)`` of the gated req/s for ``doc``'s
    discipline and policy, against its own baseline block (``KeyError``
    naming the block when the baseline has no floor for the pair)."""
    policy = doc.get("policy", "sp-cache")
    key = "ps" if doc["discipline"] == "ps" else None
    label = "vectorized" if key is None else "vectorized ps"
    if policy != "sp-cache":
        if key is not None:
            raise KeyError(f"no {key} floor for {policy} in the baseline")
        label, key = f"{label} {policy}", policy
    floors = baseline if key is None else baseline[key]
    base = floors["requests_per_sec"]["vectorized"]
    measured = doc["requests_per_sec"]["vectorized"]
    return label, measured, base * (1.0 - tolerance)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=DEFAULT_REQUESTS)
    parser.add_argument("--batch-size", type=int, default=DEFAULT_BATCH)
    parser.add_argument("--rate", type=float, default=20.0)
    parser.add_argument(
        "--discipline", choices=("fifo", "ps"), default="fifo",
        help="server discipline (default %(default)s)",
    )
    parser.add_argument(
        "--policy", choices=sorted(POLICIES), default="sp-cache",
        help="caching scheme at the paper's settings (default %(default)s)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="perf gate: fail when the gated req/s regress vs this file",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed fractional regression vs baseline (default 0.3)",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="output JSON path (default BENCH_<ts>_engine_scale.json)",
    )
    args = parser.parse_args(argv)

    doc = run_engine_scale(
        n_requests=args.requests,
        batch_size=args.batch_size,
        rate=args.rate,
        discipline=args.discipline,
        policy=args.policy,
    )

    out = args.out or time.strftime("BENCH_%Y%m%d-%H%M%S_engine_scale.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")

    rss = doc["peak_rss_bytes"]
    print(
        f"engine scale: {doc['n_requests']} requests, "
        f"discipline={doc['discipline']}, policy={doc['policy']}, "
        f"batch={doc['batch_size']}\n"
        f"  vectorized  {doc['requests_per_sec']['vectorized']:>12.0f} req/s "
        f"({doc['wall_seconds']['engine_scale']:.2f}s)\n"
        f"  peak rss    {(rss / 2**20 if rss else float('nan')):>12.1f} MiB\n"
        f"  archive  -> {out}"
    )

    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        label, measured, floor = gate(doc, baseline, args.tolerance)
        if measured < floor:
            print(
                f"PERF GATE FAILED: {label} {measured:.0f} req/s "
                f"< floor {floor:.0f} req/s "
                f"(baseline - {args.tolerance:.0%})",
                file=sys.stderr,
            )
            return 1
        print(
            f"  perf gate   ok ({label} {measured:.0f} >= {floor:.0f} req/s)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
