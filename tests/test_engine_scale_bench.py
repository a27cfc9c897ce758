"""``benchmarks/bench_engine_scale.py``: doc shape and the per-discipline gate.

The CI ``bench-smoke`` job gates SP-Cache on fifo and on ps, and EC-Cache
on fifo, each on req/s against its own floor in
``baseline_engine_scale.json``; a tiny run here keeps every gated path and
the committed baseline in step.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
BASELINE = json.loads(
    (BENCH_DIR / "baseline_engine_scale.json").read_text(encoding="utf-8")
)


def _bench():
    spec = importlib.util.spec_from_file_location(
        "bench_engine_scale", BENCH_DIR / "bench_engine_scale.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_engine_scale", module)
    spec.loader.exec_module(module)
    return module


def test_ps_run_reports_batched_rate_and_gates_on_its_floor():
    bench = _bench()
    doc = bench.run_engine_scale(n_requests=60, batch_size=16, discipline="ps")
    assert doc["discipline"] == "ps"
    assert doc["batch_size"] == 16
    assert set(doc["wall_seconds"]) == {"engine_scale"}
    assert set(doc["requests_per_sec"]) == {"vectorized"}
    label, measured, floor = bench.gate(doc, BASELINE, 0.3)
    assert label == "vectorized ps"
    assert measured == doc["requests_per_sec"]["vectorized"]
    assert floor == pytest.approx(
        BASELINE["ps"]["requests_per_sec"]["vectorized"] * 0.7
    )


def test_fifo_run_gates_on_vectorized_floor():
    bench = _bench()
    doc = bench.run_engine_scale(
        n_requests=200, batch_size=64, discipline="fifo"
    )
    assert set(doc["requests_per_sec"]) == {"vectorized"}
    label, measured, floor = bench.gate(doc, BASELINE, 0.3)
    assert label == "vectorized"
    assert measured == doc["requests_per_sec"]["vectorized"]
    assert floor == pytest.approx(
        BASELINE["requests_per_sec"]["vectorized"] * 0.7
    )


def test_ec_cache_fifo_run_gates_on_its_own_floor():
    bench = _bench()
    doc = bench.run_engine_scale(
        n_requests=200,
        batch_size=64,
        discipline="fifo",
        policy="ec-cache",
    )
    assert doc["policy"] == "ec-cache"
    label, measured, floor = bench.gate(doc, BASELINE, 0.3)
    assert label == "vectorized ec-cache"
    assert measured == doc["requests_per_sec"]["vectorized"]
    assert floor == pytest.approx(
        BASELINE["ec-cache"]["requests_per_sec"]["vectorized"] * 0.7
    )
    # No ps floor exists for the baselines: the gate refuses, naming it.
    ps_doc = dict(doc, discipline="ps")
    with pytest.raises(KeyError, match="ec-cache"):
        bench.gate(ps_doc, BASELINE, 0.3)
