"""The reservoir histogram as it was before replacement slots were drawn
in blocks (tests only).

:class:`Histogram` below is :class:`repro.obs.metrics.Histogram` kept
verbatim from then: it makes one ``Generator.integers`` call per value
past the reservoir fill (``observe``) or one call per batch
(``observe_many``).  ``test_metrics.py`` feeds the same values to both
and requires the snapshots, samples, bucket counts and sums to agree
exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Iterable

import numpy as np

from repro.obs.metrics import DEFAULT_SECONDS_BUCKETS

__all__ = ["Histogram"]


class Histogram:
    """Streaming distribution: fixed buckets + reservoir percentiles.

    ``buckets`` are upper bounds of half-open intervals; observations above
    the last bound land in an implicit overflow bucket.  The reservoir keeps
    a uniform sample of at most ``reservoir_size`` observations (Algorithm
    R), so :meth:`percentile` is exact until the sample outgrows the
    reservoir and an unbiased estimate after.
    """

    __slots__ = (
        "name",
        "labels",
        "buckets",
        "bucket_counts",
        "count",
        "sum",
        "_reservoir",
        "_rng",
    )

    def __init__(
        self,
        name: str,
        labels: dict[str, Any],
        buckets: Iterable[float] | None = None,
        reservoir_size: int = 4096,
        seed: int = 0,
    ) -> None:
        self.name = name
        self.labels = dict(labels)
        self.buckets = tuple(
            sorted(buckets if buckets is not None else DEFAULT_SECONDS_BUCKETS)
        )
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self._reservoir: list[float] = [0.0] * reservoir_size
        self._rng = np.random.default_rng(seed)

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_right(self.buckets, value)] += 1
        cap = len(self._reservoir)
        if self.count < cap:
            self._reservoir[self.count] = value
        else:
            j = int(self._rng.integers(0, self.count + 1))
            if j < cap:
                self._reservoir[j] = value
        self.count += 1
        self.sum += value

    def observe_many(self, values: np.ndarray) -> None:
        """Bulk observe; vectorized counterpart of :meth:`observe`."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        idx = np.searchsorted(self.buckets, arr, side="right")
        for i, c in zip(*np.unique(idx, return_counts=True)):
            self.bucket_counts[int(i)] += int(c)
        cap = len(self._reservoir)
        free = cap - self.count
        if free > 0:
            take = arr[: free]
            self._reservoir[self.count : self.count + take.size] = [
                float(v) for v in take
            ]
            rest = arr[free:]
        else:
            rest = arr
        if rest.size:
            # Algorithm R, vectorized: item at global position n replaces a
            # reservoir slot iff randint(0, n) < cap.  Replacements are
            # applied in stream order so later items overwrite earlier.
            start = max(self.count, cap)
            slots = self._rng.integers(
                0, np.arange(start, start + rest.size) + 1
            )
            for i in np.nonzero(slots < cap)[0]:
                self._reservoir[int(slots[i])] = float(rest[i])
        self.count += arr.size
        self.sum += float(arr.sum())

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def sample(self) -> np.ndarray:
        """The current reservoir contents (<= reservoir_size values)."""
        n = min(self.count, len(self._reservoir))
        return np.asarray(self._reservoir[:n], dtype=np.float64)

    def percentile(self, q: float | Iterable[float]) -> float | np.ndarray:
        sample = self.sample()
        if sample.size == 0:
            raise ValueError(f"histogram {self.name!r} has no observations")
        result = np.percentile(sample, q)
        return float(result) if np.isscalar(q) else result

    def snapshot(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
        }
        if self.count:
            p50, p95, p99 = self.percentile([50, 95, 99])
            out.update(p50=float(p50), p95=float(p95), p99=float(p99))
        return out
