"""Smoke test of the repository benchmark at ``--scale 0.02``.

Every workload runs once untraced and once traced; each run must pass
its correctness oracles and report exactly the metric names and units
``BENCHMARK.json`` declares.  From the repository root::

    PYTHONPATH=src python -m pytest benchmarks/suite
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=120,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_declared_metrics(workload, trace, section, tmp_path):
    proc = _run(
        ROOT,
        "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--scale", "0.02", "--trace", str(trace), "--trace-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == declared
    if trace:
        assert (tmp_path / f"{workload}.chrome.json").is_file()
        assert (tmp_path / f"{workload}.layers.json").is_file()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path,
            tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
