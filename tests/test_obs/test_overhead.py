"""Smoke test: disabled tracing costs < 10% on a 5k-request simulation.

The baseline is ``uninstrumented_fifo`` from ``benchmarks/bench_obs_overhead``
— a frozen copy of the pre-observability engine loop — so the ratio measures
exactly what the instrumentation added to the hot path (one hoisted
``tracer.enabled`` check per run plus two flag assignments per request).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from repro.cluster.simulation import SimulationConfig, simulate_reads

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
BENCH = BENCH_DIR / "bench_obs_overhead.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_obs_overhead", BENCH)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_obs_overhead", module)
    spec.loader.exec_module(module)
    return module


def test_noop_sink_overhead_under_10_percent():
    bench = _load_bench()
    trace, policy, cluster = bench.overhead_workload(n_requests=5000)
    config = SimulationConfig(discipline="fifo", jitter="deterministic", seed=2)

    # Interleaved best-of-7 pairs (see paired_times) absorb CPU frequency
    # drift; retry once so a scheduler hiccup on a loaded box doesn't flake.
    for attempt in range(2):
        t_ref, t_noop = bench.paired_times(
            [
                lambda: bench.uninstrumented_fifo(
                    trace, policy, cluster, config
                ),
                lambda: simulate_reads(trace, policy, cluster, config),
            ]
        )
        ratio = t_noop / t_ref
        if ratio < 1.10:
            break
    assert ratio < 1.10, (
        f"no-op tracing overhead {100 * (ratio - 1):.1f}% exceeds the 10% "
        f"budget (reference {t_ref:.4f}s, instrumented {t_noop:.4f}s)"
    )


def test_enabled_popularity_overhead_under_5_percent():
    """Streaming popularity observation *on* (default 2048-request
    windows) must stay under the 5% budget quoted in
    ``docs/observability.md``: the hot path is one list append plus a
    window-boundary check, and server loads come from snapshot-diffing
    the engine's own byte vector (the bench records ~1.02x; retries
    absorb scheduler noise on loaded CI boxes)."""
    bench = _load_bench()
    # Scheduler noise only ever *inflates* the measured ratio, so the
    # best of a few attempts is the honest estimate of the real overhead.
    ratio = float("inf")
    for attempt in range(4):
        rows = bench.run_observer_overhead("popularity", n_requests=5000, repeats=5)
        ratio = min(ratio, rows[1]["vs_off"])
        if ratio < 1.05:
            break
    assert ratio < 1.05, (
        f"enabled popularity overhead {100 * (ratio - 1):.1f}% exceeds "
        f"the 5% budget (off {rows[0]['seconds']:.4f}s, "
        f"on {rows[1]['seconds']:.4f}s)"
    )


def test_enabled_slo_overhead_under_5_percent():
    """SLO evaluation *on* (the default loose objectives) must stay
    under the 5% budget: the hot path is one miss-flag list append per
    request; window bucketing and burn-rate sums are a single vectorized
    finalize pass (the bench records ~1.01x; best-of retries absorb
    scheduler noise on loaded CI boxes)."""
    bench = _load_bench()
    ratio = float("inf")
    for attempt in range(4):
        rows = bench.run_observer_overhead("slo", n_requests=5000, repeats=5)
        ratio = min(ratio, rows[1]["vs_off"])
        if ratio < 1.05:
            break
    assert ratio < 1.05, (
        f"enabled SLO overhead {100 * (ratio - 1):.1f}% exceeds the 5% "
        f"budget (off {rows[0]['seconds']:.4f}s, "
        f"on {rows[1]['seconds']:.4f}s)"
    )


def test_enabled_causal_overhead_under_5_percent():
    """Causal collection *on* must stay under the 5% budget: the hot
    path is the same buffered-append partition log the timeline
    collector reads; edge classification and the conservation check are
    one vectorized finalize pass (best-of retries absorb scheduler
    noise on loaded CI boxes)."""
    bench = _load_bench()
    ratio = float("inf")
    for attempt in range(4):
        rows = bench.run_observer_overhead("causal", n_requests=5000, repeats=5)
        ratio = min(ratio, rows[1]["vs_off"])
        if ratio < 1.05:
            break
    assert ratio < 1.05, (
        f"enabled causal overhead {100 * (ratio - 1):.1f}% exceeds the 5% "
        f"budget (off {rows[0]['seconds']:.4f}s, "
        f"on {rows[1]['seconds']:.4f}s)"
    )


def test_enabled_timeline_overhead_under_budget():
    """Timelines *on* at the default window width must stay well inside
    the 25% enabled-path budget on the fig13-like PS workload (the bench
    records ~1.02x; the bound is generous to absorb CI noise)."""
    bench = _load_bench()
    for attempt in range(2):
        rows = bench.run_observer_overhead("timeline", n_requests=2000, repeats=3)
        ratio = rows[-1]["vs_off"]
        if ratio < 1.25:
            break
    assert ratio < 1.25, (
        f"enabled timeline overhead {100 * (ratio - 1):.1f}% exceeds the "
        f"25% budget"
    )
