"""Process-wide metrics registry: counters, gauges, streaming histograms.

The registry is the always-on half of the observability layer (the tracer
in :mod:`repro.obs.tracing` is the opt-in half): instrumented code sites
increment counters and feed histograms unconditionally, and tests or the
CLI read a :meth:`MetricsRegistry.snapshot` afterwards.  Metrics are
labelled (``registry.counter("store.block_miss", worker_id=3)``) so one
metric name fans out across schemes, servers, or files without string
mangling at the call site.

Histograms are streaming: a fixed exponential bucket ladder for coarse
distribution shape plus a bounded reservoir sample (Vitter's Algorithm R
with a seeded PRNG, so snapshots are deterministic) for p50/p95/p99.  For
samples no larger than the reservoir the percentiles are *exact* — they
reduce to ``np.percentile`` over every observation.

Once the reservoir is full, every observation draws a replacement slot
from the histogram's own generator; the slots are drawn in blocks of
:data:`SLOT_BLOCK` by one ``Generator.integers`` call.  The bound of each
slot depends only on the running count, so a slot drawn ahead is the slot
a per-value draw would have produced: samples and snapshots are the same
as drawing one at a time, and :meth:`Histogram.observe_many` uses up the
slots already drawn before it draws more.  Hot loops that produce a whole
latency vector at once should use :meth:`Histogram.observe_many`, which
updates the bucket counts and the reservoir with vectorized NumPy work
instead of a Python-level loop.

Hot call sites (the byte store's per-block counters) build their keys
once with :func:`metric_key` and resolve them per call with
:meth:`MetricsRegistry.counter_at` / :meth:`MetricsRegistry.histogram_at`
against whichever registry is live, skipping the label sort.

Test isolation: :func:`reset_registry` drops every metric; suites that
assert on counts call it in a fixture so modules instrumented with the
process-wide registry (store workers, the simulator) start from zero.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Any, Iterable

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "SLOT_BLOCK",
    "get_registry",
    "metric_key",
    "parse_snapshot_key",
    "render_snapshot_key",
    "reset_registry",
    "set_registry",
]

#: Exponential bucket ladder covering 100 us .. ~100 s, a sensible default
#: for the second-scale latencies the simulator produces.
DEFAULT_SECONDS_BUCKETS: tuple[float, ...] = tuple(
    1e-4 * (10.0 ** (i / 3.0)) for i in range(19)
)

#: Replacement slots a full reservoir draws per generator call.
SLOT_BLOCK = 256

LabelKey = tuple[str, tuple[tuple[str, Any], ...]]


def metric_key(name: str, **labels: Any) -> LabelKey:
    """The registry key of metric ``name`` with ``labels``: build it once,
    resolve it per call with :meth:`MetricsRegistry.counter_at` or
    :meth:`MetricsRegistry.histogram_at`."""
    return name, tuple(sorted(labels.items()))


#: Characters in a label value that force the quoted rendering in
#: :func:`render_snapshot_key` — anything that would collide with the
#: ``name{k=v,...}`` syntax itself.
_NEEDS_QUOTING = set(',={}"\n\\')


def _render_label_value(value: Any) -> str:
    """One label value as it appears inside a snapshot key.

    Plain values render bare (``scheme=sp-cache``) so existing keys stay
    byte-identical; values containing a delimiter (``,``, ``=``, braces,
    quotes, newlines, backslashes) render as a double-quoted string with
    backslash escapes, so :func:`parse_snapshot_key` can round-trip them.
    """
    s = str(value)
    if not _NEEDS_QUOTING.intersection(s):
        return s
    escaped = (
        s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )
    return f'"{escaped}"'


def render_snapshot_key(name: str, labels: dict[str, Any]) -> str:
    """The flat ``name{k=v,...}`` key used by :meth:`MetricsRegistry.snapshot`.

    Labels render in sorted order; values that contain key-syntax
    delimiters are quoted/escaped (see :func:`_render_label_value`).
    """
    if not labels:
        return name
    rendered = ",".join(
        f"{k}={_render_label_value(v)}" for k, v in sorted(labels.items())
    )
    return f"{name}{{{rendered}}}"


def parse_snapshot_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`render_snapshot_key`: ``name{k=v,...}`` -> name + labels.

    Label values come back as strings (the snapshot key does not preserve
    the original type); quoted values are unescaped.  Raises
    :class:`ValueError` on malformed keys.
    """
    if "{" not in key:
        if "}" in key:
            raise ValueError(f"malformed snapshot key {key!r}")
        return key, {}
    if not key.endswith("}"):
        raise ValueError(f"malformed snapshot key {key!r}")
    name, _, body = key[:-1].partition("{")
    labels: dict[str, str] = {}
    i, n = 0, len(body)
    while i < n:
        eq = body.index("=", i)
        label = body[i:eq]
        if not label:
            raise ValueError(f"empty label name in snapshot key {key!r}")
        i = eq + 1
        if i < n and body[i] == '"':
            i += 1
            out: list[str] = []
            while True:
                if i >= n:
                    raise ValueError(
                        f"unterminated quoted value in snapshot key {key!r}"
                    )
                c = body[i]
                if c == "\\":
                    if i + 1 >= n:
                        raise ValueError(
                            f"dangling escape in snapshot key {key!r}"
                        )
                    nxt = body[i + 1]
                    out.append({"n": "\n"}.get(nxt, nxt))
                    i += 2
                elif c == '"':
                    i += 1
                    break
                else:
                    out.append(c)
                    i += 1
            value = "".join(out)
            if i < n:
                if body[i] != ",":
                    raise ValueError(
                        f"expected ',' after quoted value in {key!r}"
                    )
                i += 1
        else:
            end = body.find(",", i)
            if end == -1:
                end = n
            value = body[i:end]
            i = end + 1
        labels[label] = value
    return name, labels


class Counter:
    """Monotonically increasing count (events, bytes, operations)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Gauge:
    """Last-write-wins value (queue depth, imbalance factor, alpha)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        self.name = name
        self.labels = dict(labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Streaming distribution: fixed buckets + reservoir percentiles.

    ``buckets`` are upper bounds of half-open intervals; observations above
    the last bound land in an implicit overflow bucket.  The reservoir keeps
    a uniform sample of at most ``reservoir_size`` observations (Algorithm
    R), so :meth:`percentile` is exact until the sample outgrows the
    reservoir and an unbiased estimate after.  Replacement slots come from
    the histogram's own generator, :data:`SLOT_BLOCK` per draw; ``_slots``
    holds the ones drawn for the observations at ``count`` onwards, from
    ``_slot_pos``.
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
        "_slots",
        "_slot_pos",
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
        self._slots: list[int] = []
        self._slot_pos = 0

    def _draw_slots(self, first: int, n: int) -> np.ndarray:
        """Algorithm R's slots for the ``n`` observations at global
        positions ``first`` onwards: ``randint(0, position)`` each."""
        return self._rng.integers(0, np.arange(first, first + n) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect_right(self.buckets, value)] += 1
        count = self.count
        reservoir = self._reservoir
        if count < len(reservoir):
            reservoir[count] = value
        else:
            pos = self._slot_pos
            if pos == len(self._slots):
                self._slots = self._draw_slots(count, SLOT_BLOCK).tolist()
                pos = 0
            j = self._slots[pos]
            self._slot_pos = pos + 1
            if j < len(reservoir):
                reservoir[j] = value
        self.count = count + 1
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
            # The slots already drawn come first; the rest are drawn now.
            pos = self._slot_pos
            held = self._slots[pos : pos + rest.size]
            self._slot_pos = pos + len(held)
            slots = np.asarray(held, dtype=np.int64)
            if len(held) < rest.size:
                start = max(self.count, cap) + len(held)
                fresh = self._draw_slots(start, rest.size - len(held))
                slots = np.concatenate((slots, fresh))
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


class MetricsRegistry:
    """Get-or-create home for every metric in the process.

    Thread-safe at the get-or-create level (metric mutation itself is
    GIL-atomic float arithmetic, adequate for the simulator's single-thread
    hot paths and coarse enough for multi-threaded callers).
    """

    def __init__(self) -> None:
        self._metrics: dict[LabelKey, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, key: LabelKey, **kw):
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = cls(key[0], dict(key[1]), **kw)
                    self._metrics[key] = metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {key[0]!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(Counter, metric_key(name, **labels))

    def counter_at(self, key: LabelKey) -> Counter:
        """:meth:`counter` under a key built by :func:`metric_key`."""
        metric = self._metrics.get(key)
        if type(metric) is Counter:  # the hot path: one dict lookup
            return metric
        return self._get_or_create(Counter, key)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(Gauge, metric_key(name, **labels))

    def histogram(
        self,
        name: str,
        buckets: Iterable[float] | None = None,
        **labels: Any,
    ) -> Histogram:
        return self.histogram_at(metric_key(name, **labels), buckets)

    def histogram_at(
        self, key: LabelKey, buckets: Iterable[float] | None = None
    ) -> Histogram:
        """:meth:`histogram` under a key built by :func:`metric_key`."""
        metric = self._metrics.get(key)
        if type(metric) is Histogram:  # the hot path: one dict lookup
            return metric
        return self._get_or_create(Histogram, key, buckets=buckets)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def reset(self) -> None:
        """Drop every metric (test isolation between cases)."""
        with self._lock:
            self._metrics.clear()

    def snapshot(self, prefix: str = "") -> dict[str, Any]:
        """Flat ``{"name{k=v,...}": value}`` view of the registry.

        Counters and gauges map to floats; histograms map to their summary
        dict (count/sum/mean/p50/p95/p99).  Keys render via
        :func:`render_snapshot_key`, so label values carrying delimiter
        characters stay parseable with :func:`parse_snapshot_key`.
        """
        out: dict[str, Any] = {}
        for (name, labels), metric in sorted(
            self._metrics.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
        ):
            if not name.startswith(prefix):
                continue
            out[render_snapshot_key(name, dict(labels))] = metric.snapshot()
        return out


_global_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every instrumented module writes to."""
    return _global_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _global_registry
    previous = _global_registry
    _global_registry = registry
    return previous


def reset_registry() -> None:
    """Clear the process-wide registry (call between tests)."""
    _global_registry.reset()
