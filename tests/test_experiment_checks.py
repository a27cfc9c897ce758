"""The figures' built-in result checks raise named errors.

They must hold under ``python -O`` too, which strips ``assert``; the CI
``optimized-mode`` job runs this file with asserts stripped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import fig06_goodput, fig11_partition_sizes


def test_fig06_rising_goodput_raises_naming_the_figure(monkeypatch):
    monkeypatch.setattr(
        fig06_goodput.GoodputModel, "factor", lambda self, k, bw: float(k)
    )
    with pytest.raises(ValueError, match=r"fig06: .*\{1: 1\.0, 2: 2\.0"):
        fig06_goodput.run_fig06(ks=(1, 2))


def test_fig06_passes_on_the_calibrated_model():
    rows = fig06_goodput.run_fig06(ks=(1, 20, 100))
    assert [r["partitions"] for r in rows] == [1, 20, 100]


def test_fig11_rising_partition_counts_raise_naming_the_ranks(monkeypatch):
    real = fig11_partition_sizes.partition_counts

    def rising_tail(*args, **kwargs):
        ks = np.array(real(*args, **kwargs))
        ks[-1] = ks[0] + 1
        return ks

    monkeypatch.setattr(fig11_partition_sizes, "partition_counts", rising_tail)
    with pytest.raises(ValueError, match=r"fig11: .*-> \(20, 11\)"):
        fig11_partition_sizes.run_fig11(n_files=20)
