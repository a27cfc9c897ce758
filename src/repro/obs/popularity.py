"""Streaming popularity & skew observability (sketches, drift, hot spots).

SP-Cache's mechanism — partition factors ``k_i ∝ P_i`` (Eq. 4) and the
Algorithm-2 repartition — presupposes that popularity is *known*.  The
experiments feed it oracle vectors; this module observes popularity from
the live request stream instead, with bounded memory:

* :class:`CountMinSketch` — per-file access counts in ``depth x width``
  counters.  Point queries never under-estimate, and over-estimate by at
  most ``epsilon * N`` (``N`` = stream length) with probability at least
  ``1 - delta``, where ``epsilon = e / width`` and ``delta = e^-depth``
  (Cormode & Muthukrishnan's bounds for the multiply-shift hash family
  used here).
* :class:`SpaceSavingTopK` — the Space-Saving stream summary.  Each
  retained key carries ``(count, error)``: the true count lies in
  ``[count - error, count]``, and any key whose true count exceeds the
  smallest retained counter is guaranteed present.
* :class:`PopularityMonitor` — rides inside
  :class:`~repro.cluster.engine.lifecycle.RequestLifecycle` (every
  discipline) or the :class:`~repro.store.master.Master` read path.  The
  hot-path hook only buffers; all sketch folding happens once per
  *window* (count- or sim-time-based), where the monitor also

  - fits an online Zipf exponent over the top-K counts (the sorted
    log-log rank/count slope — scale-free, so fitting the head of a pure
    power law recovers the full exponent);
  - tracks per-window server-load imbalance (CV and max/mean of bytes
    served, smoothed by an EWMA);
  - compares consecutive windows' popularity vectors (weighted L1 in
    ``[0, 2]`` plus top-K rank churn) and raises ``drift`` / ``hotspot``
    trace events when configured thresholds trip.

Like timelines, collection is off by default: a run observes nothing
unless its :class:`~repro.cluster.engine.lifecycle.SimulationConfig`
carries a :class:`PopularityConfig` or one is installed ambiently with
:func:`use_popularity`.  Finalized sections are plain JSON-able dicts;
they serialize into run manifests (schema version 3) and render through
``repro top`` / ``repro watch``.
"""

from __future__ import annotations

import heapq
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from math import exp, log
from typing import Any, Iterator

import numpy as np

from repro.obs import events as ev
from repro.obs.metrics import get_registry
from repro.obs.tracing import Tracer, get_tracer

__all__ = [
    "POPULARITY_SCHEMA_VERSION",
    "CountMinSketch",
    "PopularityConfig",
    "PopularityMonitor",
    "SpaceSavingTopK",
    "collect_popularity",
    "get_popularity_config",
    "popularity_from_trace",
    "publish_popularity",
    "use_popularity",
    "zipf_alpha_from_counts",
]

#: Version of the popularity *section* layout (independent of the manifest
#: schema version, which gates the envelope).
POPULARITY_SCHEMA_VERSION = 1


def _next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


class CountMinSketch:
    """Count-Min sketch over integer keys with multiply-shift hashing.

    ``width`` is rounded up to a power of two so the hash can be the top
    bits of ``(a * key) mod 2**64`` with odd ``a`` — a universal family
    whose overflow wrap-around is the modulus, not a bug.  Error
    contract (for the *rounded* width ``w``): ``estimate(k) >= true(k)``
    always, and ``estimate(k) <= true(k) + (e / w) * total`` with
    probability at least ``1 - e**-depth``.
    """

    def __init__(self, width: int = 1024, depth: int = 4, seed: int = 0) -> None:
        if width < 2:
            raise ValueError("width must be >= 2")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.width = _next_pow2(width)
        self.depth = int(depth)
        self._shift = np.uint64(64 - int(log(self.width, 2)))
        rng = np.random.default_rng(int(seed))
        # Odd multipliers over the full 64-bit range.
        self._a = (
            rng.integers(1, 2**63, size=self.depth, dtype=np.uint64) * 2 + 1
        )
        self.table = np.zeros((self.depth, self.width), dtype=np.float64)
        self.total = 0.0

    @property
    def epsilon(self) -> float:
        """Over-estimation bound as a fraction of the stream length."""
        return float(np.e) / self.width

    @property
    def delta(self) -> float:
        """Probability the ``epsilon`` bound fails for one query."""
        return exp(-self.depth)

    @property
    def memory_bytes(self) -> int:
        return int(self.table.nbytes)

    def _indices(self, keys: np.ndarray) -> np.ndarray:
        k = np.asarray(keys).astype(np.uint64)
        with np.errstate(over="ignore"):
            mixed = self._a[:, None] * k[None, :]
        return (mixed >> self._shift).astype(np.int64)

    def update(self, keys, counts=None) -> None:
        """Add ``counts`` (default 1 each) to every key, vectorized."""
        keys = np.atleast_1d(np.asarray(keys, dtype=np.int64))
        if keys.size == 0:
            return
        if counts is None:
            counts = np.ones(keys.size)
        counts = np.broadcast_to(
            np.asarray(counts, dtype=np.float64), keys.shape
        )
        idx = self._indices(keys)
        for d in range(self.depth):
            np.add.at(self.table[d], idx[d], counts)
        self.total += float(counts.sum())

    def estimate(self, key: int) -> float:
        return float(self.estimate_many([key])[0])

    def estimate_many(self, keys) -> np.ndarray:
        """Point estimates (never below the true counts)."""
        keys = np.atleast_1d(np.asarray(keys, dtype=np.int64))
        if keys.size == 0:
            return np.zeros(0)
        idx = self._indices(keys)
        rows = np.arange(self.depth)[:, None]
        return self.table[rows, idx].min(axis=0)


class SpaceSavingTopK:
    """Space-Saving stream summary: the heavy hitters in ``capacity`` slots.

    Each retained key carries ``(count, error)`` where the true count lies
    in ``[count - error, count]``.  Eviction replaces the smallest counter
    (ties broken by key for determinism), so any key whose true count
    exceeds ``min(counts)`` is guaranteed retained.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._counts: dict[int, float] = {}
        self._errors: dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._counts)

    def update(self, key: int, count: float = 1.0) -> None:
        key = int(key)
        counts = self._counts
        if key in counts:
            counts[key] += count
        elif len(counts) < self.capacity:
            counts[key] = count
            self._errors[key] = 0.0
        else:
            victim = min(counts, key=lambda k: (counts[k], k))
            floor = counts.pop(victim)
            self._errors.pop(victim)
            counts[key] = floor + count
            self._errors[key] = floor

    def update_many(self, keys, counts) -> None:
        """Batch update; heaviest first so evictions stay deterministic.

        Semantically identical to calling :meth:`update` per key in
        descending-count order, but evictions find the minimum through a
        lazily-invalidated heap instead of an O(capacity) scan — the
        per-window fold this monitor relies on.
        """
        keys = np.asarray(keys, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.float64)
        scounts, serrors = self._counts, self._errors
        heap: list[tuple[float, int]] | None = None
        for i in np.lexsort((keys, -counts)):
            key = int(keys[i])
            count = float(counts[i])
            if key in scounts:
                scounts[key] += count
                if heap is not None:
                    heapq.heappush(heap, (scounts[key], key))
            elif len(scounts) < self.capacity:
                scounts[key] = count
                serrors[key] = 0.0
                if heap is not None:
                    heapq.heappush(heap, (count, key))
            else:
                if heap is None:
                    heap = [(v, k) for k, v in scounts.items()]
                    heapq.heapify(heap)
                # Stale entries (count has since grown) pop first but
                # fail the freshness check; every count change pushes a
                # fresh entry, so the true minimum is always present.
                while True:
                    floor, victim = heapq.heappop(heap)
                    if scounts.get(victim) == floor:
                        break
                del scounts[victim]
                del serrors[victim]
                scounts[key] = floor + count
                serrors[key] = floor
                heapq.heappush(heap, (floor + count, key))

    def top(self, k: int | None = None) -> list[tuple[int, float, float]]:
        """``(key, count, error)`` triples, heaviest first."""
        items = sorted(self._counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if k is not None:
            items = items[:k]
        return [(key, count, self._errors[key]) for key, count in items]


def zipf_alpha_from_counts(counts) -> float | None:
    """Zipf exponent from observed access counts (head of the stream).

    Least-squares slope of ``log count`` vs ``log rank`` over the sorted
    (descending) counts — the count-domain twin of
    :func:`repro.workloads.popularity.zipf_exponent_fit`.  A power law is
    scale-free, so fitting only the retained head still recovers the full
    exponent.  Returns ``None`` when fewer than three positive counts
    exist (no meaningful slope).
    """
    c = np.sort(np.asarray(counts, dtype=np.float64))[::-1]
    c = c[c > 0]
    if c.size < 3:
        return None
    ranks = np.arange(1, c.size + 1, dtype=np.float64)
    slope, _ = np.polyfit(np.log(ranks), np.log(c), 1)
    return float(-slope)


@dataclass(frozen=True)
class PopularityConfig:
    """Knobs of one run's streaming popularity observation.

    Windows roll every ``window_requests`` observations, or every
    ``window_s`` simulated seconds when set (time wins).  ``top_k`` sizes
    the reported hot list and the rank-churn comparison; ``capacity``
    sizes the Space-Saving summary (also the per-window exact-count
    bound fed to the drift comparison).  Alerts only fire when both
    compared windows carry at least ``min_window_count`` observations, so
    a sparse warmup window cannot trip a drift alarm.  ``estimate_ids``
    embeds a normalized estimate vector for file ids ``[0, n)`` into the
    finalized section — what sketch-driven repartitioning consumes.
    """

    width: int = 1024
    depth: int = 4
    top_k: int = 16
    capacity: int = 128
    window_requests: int = 2048
    window_s: float | None = None
    max_windows: int = 4096
    ewma_alpha: float = 0.3
    drift_threshold: float = 0.6
    churn_threshold: float = 0.5
    hotspot_share: float = 0.25
    min_window_count: int = 64
    estimate_ids: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.width < 2:
            raise ValueError("width must be >= 2")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.capacity < self.top_k:
            raise ValueError("capacity must be >= top_k")
        if self.window_requests < 1:
            raise ValueError("window_requests must be >= 1")
        if self.window_s is not None and not self.window_s > 0:
            raise ValueError("window_s must be positive (or None)")
        if self.max_windows < 1:
            raise ValueError("max_windows must be >= 1")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.drift_threshold < 0:
            raise ValueError("drift_threshold must be non-negative")
        if not 0 <= self.churn_threshold <= 1:
            raise ValueError("churn_threshold must be in [0, 1]")
        if not 0 < self.hotspot_share <= 1:
            raise ValueError("hotspot_share must be in (0, 1]")
        if self.min_window_count < 1:
            raise ValueError("min_window_count must be >= 1")
        if self.estimate_ids is not None and self.estimate_ids < 1:
            raise ValueError("estimate_ids must be positive (or None)")


# -- ambient config + section sinks (mirrors obs.timeline) -----------------

_local = threading.local()


def get_popularity_config() -> PopularityConfig | None:
    """The ambiently installed :class:`PopularityConfig`, or ``None``."""
    stack = getattr(_local, "configs", None)
    return stack[-1] if stack else None


@contextmanager
def use_popularity(config: PopularityConfig) -> Iterator[PopularityConfig]:
    """Ambiently enable popularity observation for the block."""
    if not isinstance(config, PopularityConfig):
        raise TypeError(
            f"config must be a PopularityConfig, got {type(config).__name__}"
        )
    stack = getattr(_local, "configs", None)
    if stack is None:
        stack = _local.configs = []
    stack.append(config)
    try:
        yield config
    finally:
        stack.pop()


@contextmanager
def collect_popularity(
    into: list[dict[str, Any]] | None = None,
) -> Iterator[list[dict[str, Any]]]:
    """Collect every popularity section published inside the block."""
    sink: list[dict[str, Any]] = into if into is not None else []
    sinks = getattr(_local, "sinks", None)
    if sinks is None:
        sinks = _local.sinks = []
    sinks.append(sink)
    try:
        yield sink
    finally:
        for i in range(len(sinks) - 1, -1, -1):
            if sinks[i] is sink:
                del sinks[i]
                break


def publish_popularity(section: dict[str, Any]) -> None:
    """Hand one finalized section to every active collector."""
    for sink in getattr(_local, "sinks", ()):
        sink.append(section)


# -- the monitor -----------------------------------------------------------


class PopularityMonitor:
    """Streaming popularity/skew monitor fed from a request path.

    The :meth:`observe` hot path only appends to buffers (the file id,
    and a reference to the fork-join's server/size arrays); sketch
    folding, the per-server byte fold, drift comparison, and alerting
    all happen once per window in :meth:`_roll`.  Memory is
    bounded by the sketch table, the Space-Saving capacity, one pending
    window of file ids, and ``max_windows`` retained window rows (rolls
    past the cap are folded into the counters but their rows dropped,
    counted in the section's ``clipped_windows``).
    """

    def __init__(
        self,
        config: PopularityConfig,
        *,
        n_servers: int = 0,
        scheme: str = "",
        engine: str = "",
        tracer: Tracer | None = None,
    ) -> None:
        if not isinstance(config, PopularityConfig):
            raise TypeError(
                f"config must be a PopularityConfig, "
                f"got {type(config).__name__}"
            )
        self.config = config
        self.scheme = scheme
        self.engine = engine
        self.tracer = tracer if tracer is not None else get_tracer()
        self.sketch = CountMinSketch(config.width, config.depth, config.seed)
        self.summary = SpaceSavingTopK(config.capacity)
        self.n_servers = int(n_servers)
        self._win_loads = np.zeros(self.n_servers)
        self.n_observed = 0
        self.windows: list[dict[str, Any]] = []
        self.alerts: list[dict[str, Any]] = []
        self.clipped_windows = 0
        self.ewma_cv: float | None = None
        self.ewma_max_mean: float | None = None
        # Pending (unfolded) observations of the current window.
        self._pend: list[int] = []
        self._pend_loads: list[tuple[Any, Any]] = []
        self._win_requests = config.window_requests
        self._cum_loads: np.ndarray | None = None
        self._snap: np.ndarray | None = None
        self._time_mode = config.window_s is not None
        self._win_index = 0
        self._win_end: float | None = None  # time mode only
        self._t_first: float | None = None
        self._t_last: float | None = None
        self._prev_vec: dict[int, float] | None = None
        self._prev_top: list[int] | None = None
        self._prev_count = 0

    # -- hot path ------------------------------------------------------

    def observe(self, file_id, t=None, servers=None, sizes=None) -> None:
        """One request: buffer the file id and the fork-join load arrays.

        Guard call sites with a hoisted flag (like ``lifecycle.observe``)
        so disabled observation stays free.  ``servers``/``sizes`` must
        be ndarrays and must not be mutated afterwards — only references
        are kept until the window folds.  ``t`` is simulated seconds;
        time-based windows roll *before* buffering so the observation
        lands in its own window.
        """
        if t is not None:
            if self._time_mode:
                w = self.config.window_s
                if self._win_end is None:
                    self._win_end = (t // w + 1.0) * w
                while t >= self._win_end:
                    self._roll()
                    self._win_end += w
            if self._t_first is None:
                self._t_first = t
            self._t_last = t
        self._pend.append(file_id)
        if servers is not None and self._cum_loads is None:
            # Only a reference append here; the per-server byte fold is
            # one np.add.at over the concatenated window in _roll().
            # Callers never mutate the arrays they hand in, so the
            # references stay valid until the window closes.
            self._pend_loads.append((servers, sizes))
        if not self._time_mode and len(self._pend) >= self._win_requests:
            self._roll()

    def attach_cumulative_loads(self, server_bytes: np.ndarray) -> None:
        """Watch an engine's cumulative per-server byte vector instead.

        The engines already accrue ``server_bytes`` on their hot path;
        snapshot-diffing it at window boundaries makes per-request load
        tracking free.  Window loads then mean "bytes accrued by the
        engine during the window" (the FIFO engine accrues at plan time,
        the ps/limited flow engine at request arrival).
        """
        self._cum_loads = server_bytes
        self._snap = server_bytes.copy()
        self.n_servers = int(server_bytes.size)
        self._pend_loads = []

    def _grow_loads(self, n: int) -> None:
        grown = np.zeros(max(n, self.n_servers))
        grown[: self._win_loads.size] = self._win_loads
        self._win_loads = grown
        self.n_servers = int(grown.size)

    # -- window folding ------------------------------------------------

    def _roll(self) -> None:
        cfg = self.config
        fids = np.asarray(self._pend, dtype=np.int64)
        self._pend = []
        keys, counts = (
            np.unique(fids, return_counts=True)
            if fids.size
            else (np.zeros(0, dtype=np.int64), np.zeros(0))
        )
        counts = counts.astype(np.float64)
        total = float(counts.sum())
        self.n_observed += int(fids.size)
        self.sketch.update(keys, counts)
        self.summary.update_many(keys, counts)

        order = np.lexsort((keys, -counts))
        vec = (
            {int(keys[i]): counts[i] / total for i in order} if total else {}
        )
        top_keys = [int(keys[i]) for i in order[: cfg.top_k]]

        l1 = churn = None
        if self._prev_vec is not None:
            prev = self._prev_vec
            union = set(vec) | set(prev)
            l1 = float(
                sum(abs(vec.get(k, 0.0) - prev.get(k, 0.0)) for k in union)
            )
            if self._prev_top:
                kept = len(set(top_keys) & set(self._prev_top))
                churn = 1.0 - kept / len(self._prev_top)

        if self._cum_loads is not None:
            loads = self._cum_loads - self._snap
            np.copyto(self._snap, self._cum_loads)
        else:
            if self._pend_loads:
                servers = np.concatenate([s for s, _z in self._pend_loads])
                sizes = np.concatenate([z for _s, z in self._pend_loads])
                self._pend_loads = []
                # Unknown server ids (trace replay without a declared
                # cluster size) grow the load vector.
                try:
                    np.add.at(self._win_loads, servers, sizes)
                except IndexError:
                    self._grow_loads(int(servers.max()) + 1)
                    np.add.at(self._win_loads, servers, sizes)
            loads = self._win_loads

        cv = max_mean = None
        if loads.size and loads.any():
            mean = float(loads.mean())
            cv = float(loads.std() / mean)
            max_mean = float(loads.max() / mean)
            a = cfg.ewma_alpha
            self.ewma_cv = (
                cv if self.ewma_cv is None else a * cv + (1 - a) * self.ewma_cv
            )
            self.ewma_max_mean = (
                max_mean
                if self.ewma_max_mean is None
                else a * max_mean + (1 - a) * self.ewma_max_mean
            )
        if loads is self._win_loads and loads.size:
            loads[:] = 0.0

        if self._time_mode and self._win_end is not None:
            t_start = self._win_end - cfg.window_s
            t_end = self._win_end
        else:
            t_start = self._t_first if self._t_first is not None else 0.0
            t_end = self._t_last if self._t_last is not None else t_start
        top_file = top_keys[0] if top_keys else None
        top_share = vec.get(top_file, 0.0) if top_file is not None else 0.0
        row = {
            "window": self._win_index,
            "t_start": float(t_start),
            "t_end": float(t_end),
            "count": int(total),
            "distinct": int(keys.size),
            "l1_drift": l1,
            "rank_churn": churn,
            "cv": cv,
            "max_mean": max_mean,
            "top_file": top_file,
            "top_share": float(top_share),
        }
        if len(self.windows) < cfg.max_windows:
            self.windows.append(row)
        else:
            self.clipped_windows += 1

        reg = get_registry()
        lab = {"scheme": self.scheme or "?"}
        reg.counter("popularity.windows", **lab).inc()
        emit = self.tracer.enabled
        if emit:
            self.tracer.event(
                ev.POPULARITY_WINDOW,
                ts=float(t_start),
                scheme=self.scheme,
                **{k: v for k, v in row.items() if k != "t_start"},
            )

        # Alerts gate on both windows carrying enough evidence.
        eligible = (
            total >= cfg.min_window_count
            and self._prev_count >= cfg.min_window_count
        )
        if eligible and l1 is not None and (
            l1 >= cfg.drift_threshold
            or (churn is not None and churn >= cfg.churn_threshold)
        ):
            trigger = "l1" if l1 >= cfg.drift_threshold else "churn"
            alert = {
                "kind": "drift",
                "window": self._win_index,
                "t_start": float(t_start),
                "l1": l1,
                "rank_churn": churn,
                "trigger": trigger,
                "threshold": (
                    cfg.drift_threshold
                    if trigger == "l1"
                    else cfg.churn_threshold
                ),
            }
            self.alerts.append(alert)
            reg.counter("popularity.drift_alerts", **lab).inc()
            if emit:
                self.tracer.event(ev.DRIFT, ts=float(t_start), **alert)
        if (
            total >= cfg.min_window_count
            and top_file is not None
            and top_share >= cfg.hotspot_share
        ):
            alert = {
                "kind": "hotspot",
                "window": self._win_index,
                "t_start": float(t_start),
                "file_id": top_file,
                "share": float(top_share),
                "threshold": cfg.hotspot_share,
            }
            self.alerts.append(alert)
            reg.counter("popularity.hotspot_alerts", **lab).inc()
            if emit:
                self.tracer.event(ev.HOTSPOT, ts=float(t_start), **alert)

        self._prev_vec = vec
        self._prev_top = top_keys
        self._prev_count = int(total)
        self._t_first = None
        self._win_index += 1

    # -- estimates -----------------------------------------------------

    def estimated_popularities(self, n_files: int) -> np.ndarray:
        """Normalized popularity estimate for file ids ``[0, n_files)``.

        Count-Min point estimates, tightened by the Space-Saving counts
        where available (both over-estimate, so their min is closer to
        the truth).  Uniform until any data arrives.
        """
        if n_files < 1:
            raise ValueError("n_files must be positive")
        est = self.sketch.estimate_many(np.arange(n_files))
        for key, count, _err in self.summary.top():
            if 0 <= key < n_files:
                est[key] = min(est[key], count)
        total = est.sum()
        if total <= 0:
            return np.full(n_files, 1.0 / n_files)
        return est / total

    def alpha_estimate(self) -> float | None:
        """Online Zipf-exponent estimate from the top-K counts."""
        top = self.summary.top(self.config.top_k)
        return zipf_alpha_from_counts([count for _k, count, _e in top])

    # -- finalize ------------------------------------------------------

    def finalize(self) -> dict[str, Any]:
        """Fold any pending observations and build one JSON-able section."""
        if self._pend or not self.windows:
            self._roll()
        total = max(self.sketch.total, 1.0)
        top = [
            {
                "file_id": key,
                "count": float(count),
                "error": float(error),
                "share": float(count / total),
            }
            for key, count, error in self.summary.top(self.config.top_k)
        ]
        section: dict[str, Any] = {
            "schema_version": POPULARITY_SCHEMA_VERSION,
            "scheme": self.scheme,
            "engine": self.engine,
            "requests": int(self.n_observed),
            "n_servers": int(self.n_servers),
            "sketch": {
                "width": self.sketch.width,
                "depth": self.sketch.depth,
                "epsilon": self.sketch.epsilon,
                "delta": self.sketch.delta,
                "memory_bytes": self.sketch.memory_bytes,
                "capacity": self.summary.capacity,
            },
            "alpha_est": self.alpha_estimate(),
            "top": top,
            "n_windows": self._win_index,
            "clipped_windows": self.clipped_windows,
            "windows": list(self.windows),
            "alerts": list(self.alerts),
            "imbalance": {
                "ewma_cv": self.ewma_cv,
                "ewma_max_mean": self.ewma_max_mean,
            },
        }
        if self.config.estimate_ids is not None:
            est = self.estimated_popularities(self.config.estimate_ids)
            section["estimated_popularity"] = [float(p) for p in est]
        return section


def popularity_from_trace(
    source, config: PopularityConfig | None = None
) -> list[dict[str, Any]]:
    """Rebuild popularity sections from a JSONL trace's ``read`` events.

    One section per scheme found in the trace (sorted by scheme name) —
    what ``repro top <trace.jsonl>`` renders.  Replay monitors never
    re-emit trace events.
    """
    from repro.obs.replay import load_events

    config = config if config is not None else PopularityConfig()
    monitors: dict[str, PopularityMonitor] = {}
    for event in load_events(source):
        if event.get("event") != ev.READ:
            continue
        scheme = str(event.get("scheme", "?"))
        monitor = monitors.get(scheme)
        if monitor is None:
            monitor = monitors[scheme] = PopularityMonitor(
                config, scheme=scheme, engine="trace", tracer=Tracer()
            )
        servers = event.get("servers")
        sizes = event.get("sizes")
        monitor.observe(
            int(event["file_id"]),
            t=float(event.get("ts", 0.0)),
            servers=np.asarray(servers, dtype=np.int64)
            if servers is not None
            else None,
            sizes=np.asarray(sizes, dtype=np.float64)
            if sizes is not None
            else None,
        )
    return [monitors[s].finalize() for s in sorted(monitors)]
