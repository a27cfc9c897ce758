"""The repository benchmark: one workload per process, or a repeat sweep.

One run, from the repository root::

    python3 benchmarks/suite/run.py --workload sim-ps-fig13 --seed 1 \
        --seconds 20 --trace 0

runs the windows of fixed work that take about ``--seconds`` on the
reference machine, split over five rounds: each round sets the workload
up afresh (``setup_s`` is the median set-up), warms it up and runs its
share of the windows.  It then runs the correctness oracles and prints every metric as ``name value unit``
followed, as the last line of stdout, by one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits 1 when
an oracle fails or an operation fails.

``--trace 1`` reports the per-layer metrics instead: it runs part of
the windows untraced and then the same windows again with every layer
entry point instrumented (see ``layers.py``), writes a Chrome trace and a
per-layer JSON to ``--trace-dir``, and checks that the layers' self
times add back to the traced wall.

``--repeat N`` alternates every workload (or ``--workload a,b``) N times,
one process per run with seeds ``--seed`` .. ``--seed + N - 1``, and
prints each end-to-end metric's median, quartiles and relative spread.

Workloads, metrics and the metric -> layer map are in README.md.
"""

from __future__ import annotations

import os

# One thread of load on a two-core box: keep numpy's BLAS pools single.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
WORK = ROOT / ".bench_work"
# build_manifest asks git for the sha; keep git from searching above the checkout.
os.environ.setdefault("GIT_CEILING_DIRECTORIES", str(ROOT.parent))
SETUP_REPEATS = 5
SCHEMES = ("sp-cache", "ec-cache", "selective-replication")

#: name -> unit, reported with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "throughput": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: name -> unit, reported with ``--trace 1``.
PER_LAYER = {
    "workloads.stream_s": "s",
    **{f"policies.build_s.{s}": "s" for s in SCHEMES},
    **{f"policies.plan_read_calls.{s}": "count" for s in SCHEMES},
    **{f"policies.plan_read_s.{s}": "s" for s in SCHEMES},
    "core.scale_search_s": "s",
    "core.repartition_plan_s": "s",
    **{f"engine.req_per_s.{s}": "1/s" for s in SCHEMES},
    **{f"engine.run_self_s.{s}": "s" for s in SCHEMES},
    "engine.batch_plan_s": "s",
    "engine.fifo_schedule_s": "s",
    "obs.finalize_s.timeline": "s",
    "obs.finalize_s.causal": "s",
    "obs.finalize_s.slo": "s",
    "obs.overhead_ratio": "ratio",
    "obs.manifest_s": "s",
    "store.worker.get_calls": "count",
    "store.worker.get_s": "s",
    "store.worker.put_calls": "count",
    "store.worker.put_s": "s",
    "store.block_hit_ratio": "ratio",
    "store.evictions": "count",
    "store.recoveries": "count",
    "store.recover_s": "s",
    "store.rebalance_s": "s",
    "store.repartitioned_files": "count",
    "store.moved_mb": "MiB",
    "store.stored_per_user_byte": "ratio",
    "store.read_p50_ms": "ms",
    "store.read_p99_ms": "ms",
    "store.write_p50_ms": "ms",
    "store.write_p95_ms": "ms",
    "ec.encode_mbps": "MB/s",
    "ec.decode_mbps": "MB/s",
    "ec.gf_matmul_s": "s",
    "ec.split_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}

#: Largest relative gap between the layers' self times plus the residual
#: outside the root span and the traced phase's measured wall.
ACCOUNTING_TOLERANCE = 0.05


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _ms(phase, kind: str) -> list[float]:
    return [s * 1e3 for k, s in phase.ops if k == kind]


def _peak_rss_mb() -> float:
    from repro.obs.runinfo import peak_rss_bytes

    return (peak_rss_bytes() or 0) / 2**20


def _fresh(workload, seed: int, scale: float, workdir: Path):
    """One set-up on a clean heap (drop the previous state first)."""
    gc.collect()
    return workload.setup(seed, scale, workdir)


def _windows(workload, seconds: float) -> int:
    """Windows of fixed work that take about ``seconds`` on the reference box."""
    return max(1, round(seconds / workload.window_seconds))


def measure(workload, seed: int, seconds: float, scale: float, workdir: Path):
    """End-to-end metrics of one untraced run.

    The run sets the workload up ``SETUP_REPEATS`` times, spread over the
    run: each set-up replaces the state and is followed by its share of
    the windows, so the set-up timings meet different moments of the
    machine's load instead of one.
    """
    from workloads import Phase

    total = _windows(workload, seconds)
    setup_s: list[float] = []
    windows = []
    outcome = Phase()
    done = 0
    for r in range(SETUP_REPEATS):
        state = None
        state, busy = _fresh(workload, seed, scale, workdir)
        setup_s.append(busy)
        n = (r + 1) * total // SETUP_REPEATS - done
        if n:
            outcome.merge_outcomes(workload.warmup(state))
            phase = workload.run(state, windows=n, start=done)
            outcome.merge_outcomes(phase)
            windows.extend(phase.windows)
            done += n
    outcome.checks.extend(workload.check(state))
    # Best window: other tenants of the machine only ever add time, and
    # their bursts last seconds, so the least-disturbed window is the
    # steadiest estimate of this build's speed.
    op_ms = [[s * 1e3 for _, s in w.ops] for w in windows]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "throughput": max(w.units / w.busy_s for w in windows),
        "op_p50_ms": min(_percentile(ms, 50) for ms in op_ms),
        "peak_rss_mb": _peak_rss_mb(),
    }
    counts = {
        "setup_s": f"{SETUP_REPEATS} set-ups",
        "op_p50_ms": f"{len(op_ms[0])} ops x {len(op_ms)} windows",
    }
    return metrics, counts, outcome, []


def trace(
    workload,
    seed: int,
    seconds: float,
    scale: float,
    workdir: Path,
    trace_dir: Path,
):
    """Per-layer metrics: the same fixed work untraced, then traced.

    The copies share ``seconds`` — a third each when the untraced copy
    also reruns every scheme with observers off — so a traced run takes
    about as long as an untraced one.
    """
    from layers import recording, self_times
    from repro.obs.spans import span, write_chrome_trace
    from workloads import Check

    paired = getattr(workload, "observers", False)
    windows = _windows(workload, seconds / (3 if paired else 2))
    state, _ = _fresh(workload, seed, scale, workdir)
    outcome = workload.warmup(state)
    if paired:
        base = workload.run(state, windows=windows, paired_off=True)
    else:
        base = workload.run(state, windows=windows)
    outcome.merge_outcomes(base)
    outcome.checks.extend(workload.check(state))

    state = None
    gc.collect()
    with recording() as setup_rec:
        state, _ = workload.setup(seed, scale, workdir, setup_rec)
    outcome.merge_outcomes(workload.warmup(state))
    with recording() as rec:
        start = time.perf_counter()
        with span("trace.phase", workload=workload.name):
            traced = workload.run(state, rec, windows=windows)
        wall = time.perf_counter() - start
    outcome.merge_outcomes(traced)

    layers = self_times(rec)
    residual = wall - rec.span_total("trace.phase")
    accounted = sum(s for _, _, s in layers.values()) + residual
    worst = min(s for _, _, s in layers.values())
    outcome.checks.append(
        Check(
            "trace.self_times_add_up",
            abs(accounted - wall) <= ACCOUNTING_TOLERANCE * wall
            and worst > -1e-3,
            f"self {accounted:.4f}s vs wall {wall:.4f}s, lowest self {worst:.2e}s",
        )
    )

    both = (setup_rec, rec)
    m: dict[str, float] = {}
    m["workloads.stream_s"] = rec.total.get("workloads.stream", 0.0)
    for s in SCHEMES:
        plan_read = f"policies.plan_read.{s}"
        m[f"policies.build_s.{s}"] = setup_rec.span_total("policies.build", scheme=s)
        m[f"policies.plan_read_calls.{s}"] = rec.calls.get(plan_read, 0)
        m[f"policies.plan_read_s.{s}"] = rec.total.get(plan_read, 0.0)
        runs = base.stats.get(f"wall.{s}", 0.0)
        m[f"engine.req_per_s.{s}"] = (
            base.stats[f"requests.{s}"] / runs if runs else 0.0
        )
        m[f"engine.run_self_s.{s}"] = layers.get(f"engine.run.{s}", (0, 0.0, 0.0))[2]
    m["core.scale_search_s"] = sum(r.span_total("scale_search") for r in both)
    m["core.repartition_plan_s"] = sum(r.span_total("repartition_plan") for r in both)
    m["engine.batch_plan_s"] = rec.total.get("engine.batch_plan", 0.0)
    m["engine.fifo_schedule_s"] = rec.total.get("engine.fifo_schedule", 0.0)
    for obs in ("timeline", "causal", "slo"):
        m[f"obs.finalize_s.{obs}"] = rec.span_total(f"obs.finalize.{obs}")
    off = base.stats.get("obs_off_s", 0.0)
    m["obs.overhead_ratio"] = base.stats["obs_on_s"] / off - 1.0 if off else 0.0
    m["obs.manifest_s"] = rec.span_total("obs.manifest")
    gets = rec.calls.get("store.worker.get", 0)
    m["store.worker.get_calls"] = gets
    m["store.worker.get_s"] = rec.total.get("store.worker.get", 0.0)
    m["store.worker.put_calls"] = rec.calls.get("store.worker.put", 0)
    m["store.worker.put_s"] = rec.total.get("store.worker.put", 0.0)
    misses = rec.errors.get("store.worker.get", 0)
    m["store.block_hit_ratio"] = (gets - misses) / gets if gets else 0.0
    m["store.evictions"] = traced.stats.get("evictions", 0.0)
    m["store.recoveries"] = traced.stats.get("recoveries", 0.0)
    m["store.recover_s"] = rec.span_total("store.recover")
    m["store.rebalance_s"] = rec.span_total("store.rebalance")
    m["store.repartitioned_files"] = traced.stats.get("repartitioned_files", 0.0)
    m["store.moved_mb"] = traced.stats.get("moved_bytes", 0.0) / 2**20
    m["store.stored_per_user_byte"] = traced.stats.get("stored_per_user_byte", 0.0)
    reads, writes = _ms(base, "read"), _ms(base, "write")
    m["store.read_p50_ms"] = _percentile(reads, 50)
    m["store.read_p99_ms"] = _percentile(reads, 99)
    m["store.write_p50_ms"] = _percentile(writes, 50)
    m["store.write_p95_ms"] = _percentile(writes, 95)
    for op in ("encode", "decode"):
        codec_s = rec.codec_s.get(f"ec.{op}", 0.0)
        m[f"ec.{op}_mbps"] = (
            rec.bytes[f"ec.{op}"] / codec_s / 1e6 if codec_s else 0.0
        )
    m["ec.gf_matmul_s"] = rec.total.get("ec.gf_matmul", 0.0)
    m["ec.split_s"] = rec.total.get("ec.split", 0.0)
    m["trace.overhead_ratio"] = traced.busy_s / base.busy_s - 1.0
    m["trace.unattributed_share"] = layers["trace.phase"][2] / wall

    counts = {
        "store.read_p50_ms": len(reads),
        "store.read_p99_ms": len(reads),
        "store.write_p50_ms": len(writes),
        "store.write_p95_ms": len(writes),
    }
    table = [
        f"layer {name:<42} calls {calls:>9} total {total:10.4f}s "
        f"self {own:10.4f}s {own / wall:7.2%}"
        for name, (calls, total, own) in sorted(
            layers.items(), key=lambda kv: -kv[1][2]
        )
    ]
    table.append(
        f"layer {'(outside the root span)':<42} {'':>33} self {residual:10.4f}s"
    )

    trace_dir.mkdir(parents=True, exist_ok=True)
    chrome = trace_dir / f"{workload.name}.chrome.json"
    write_chrome_trace(
        setup_rec.records + rec.records,
        chrome,
        process_name=f"benchmarks/suite {workload.name}",
    )
    doc = {
        "workload": workload.name,
        "seed": seed,
        "phase_wall_s": wall,
        "residual_s": residual,
        "metrics": m,
        "layers": {
            name: {"calls": calls, "total_s": total, "self_s": own}
            for name, (calls, total, own) in layers.items()
        },
    }
    (trace_dir / f"{workload.name}.layers.json").write_text(
        json.dumps(doc, indent=2) + "\n", encoding="utf-8"
    )
    table.append(f"trace -> {chrome} and {workload.name}.layers.json")
    return m, counts, outcome, table


def run_one(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        if args.trace:
            trace_dir = Path(args.trace_dir)
            if not trace_dir.is_absolute():
                trace_dir = ROOT / trace_dir
            metrics, counts, outcome, notes = trace(
                workload, args.seed, args.seconds, args.scale, Path(tmp), trace_dir
            )
            units = PER_LAYER
        else:
            metrics, counts, outcome, notes = measure(
                workload, args.seed, args.seconds, args.scale, Path(tmp)
            )
            units = END_TO_END

    failed_checks = [c for c in outcome.checks if not c.ok]
    for c in outcome.checks:
        print(f"check {c.name} {'ok' if c.ok else 'FAIL'} {c.detail}")
    print(
        f"checks: {len(failed_checks)} failed; ops: {outcome.attempted} attempted, "
        f"{outcome.failed} failed"
    )
    print(f"failed_op_ratio {outcome.failed / max(outcome.attempted, 1)} fraction")
    for line in notes:
        print(line)
    for name, unit in units.items():
        n = f" (n={counts[name]})" if name in counts else ""
        print(f"{name} {metrics[name]!r} {unit}{n}")
    result = {
        "correct": not failed_checks,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    if args.json:
        Path(args.json).write_text(
            json.dumps(result, indent=2) + "\n", encoding="utf-8"
        )
    print(json.dumps(result))
    return 0 if result["correct"] and outcome.failed == 0 else 1


def repeat(args) -> int:
    """Alternate workloads, one process per run; print medians and spreads."""
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    names = (
        args.workload.split(",")
        if args.workload
        else [w["name"] for w in spec.get("workloads", [])]
    )
    values: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    bad = 0
    for i in range(args.repeat):
        for name in names:
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed + i),
                "--seconds", str(args.seconds), "--scale", str(args.scale),
                "--trace", "0",
            ]
            proc = subprocess.run(
                cmd, capture_output=True, text=True, cwd=ROOT, timeout=600
            )
            label = f"{name} seed {args.seed + i}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                bad += 1
                print(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            doc = json.loads(lines[-1])
            for metric, v in doc["metrics"].items():
                values[name].setdefault(metric, []).append(v["value"])
            shown = " ".join(f"{k}={v['value']:.6g}" for k, v in doc["metrics"].items())
            print(f"{label}: {shown}", flush=True)
    # The spread is what the benchmark's acceptance uses: the distance
    # between the quartiles as a share of the median; aim below bound / 3.
    print(
        f"{'workload':<18} {'metric':<12} {'n':>3} {'median':>12} {'q1':>12} "
        f"{'q3':>12} {'spread':>8} {'bound':>6}"
    )
    for name in names:
        for metric, vals in values[name].items():
            med = statistics.median(vals)
            q1, _, q3 = (
                statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            )
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric, "")
            verdict = "" if bound == "" else ("ok" if spread < bound / 3 else "WIDE")
            print(
                f"{name:<18} {metric:<12} {len(vals):>3} {med:>12.6g} {q1:>12.6g} "
                f"{q3:>12.6g} {spread:>8.2%} {bound:>6} {verdict}"
            )
    if args.json:
        Path(args.json).write_text(
            json.dumps(values, indent=2) + "\n", encoding="utf-8"
        )
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="workload name (comma list with --repeat)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="size the measured work to about this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--trace-dir", default=".bench_work/trace",
                        help="where --trace 1 writes its Chrome trace and layer JSON")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink request counts, file counts and sizes (tests)")
    parser.add_argument("--json", help="also write the result JSON to this file")
    parser.add_argument("--repeat", type=int, default=0, metavar="N",
                        help="run every workload N times, one process each")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.scale <= 1:
        parser.error("--scale must be in (0, 1]")
    if args.repeat:
        return repeat(args)
    if not args.workload:
        parser.error("--workload is required")
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
