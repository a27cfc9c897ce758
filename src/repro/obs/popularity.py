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
  *window* of ``window_requests`` requests, where the monitor also

  - fits an online Zipf exponent over the top-K counts (the sorted
    log-log rank/count slope — scale-free, so fitting the head of a pure
    power law recovers the full exponent);
  - tracks per-window server-load imbalance (CV and max/mean of bytes
    served, smoothed by an EWMA);
  - compares consecutive windows' popularity vectors (weighted L1 in
    ``[0, 2]`` plus top-K rank churn) and raises ``drift`` / ``hotspot``
    trace events when fixed thresholds trip.

Like timelines, collection is off by default: a run observes nothing
unless its :class:`~repro.cluster.engine.lifecycle.SimulationConfig`
carries a :class:`PopularityConfig` or one is installed ambiently with
:func:`use_popularity`.  Finalized sections are plain JSON-able dicts;
they serialize into run manifests and render through
``repro top`` and ``repro dash``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import exp, log, sqrt
from operator import itemgetter
from typing import Any, Callable

import numpy as np

from repro.obs import events as ev
from repro.obs.metrics import get_registry
from repro.obs.sections import Channel, Observer, RunEnd
from repro.obs.tracing import Tracer, get_tracer

__all__ = [
    "POPULARITY",
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


@lru_cache(maxsize=16)
def _multipliers(seed: int, depth: int) -> np.ndarray:
    """Odd row multipliers over the full 64-bit range (read-only; every
    run builds a sketch, and seeding a generator costs more than the
    rest of the constructor)."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 2**63, size=depth, dtype=np.uint64) * 2 + 1
    a.flags.writeable = False
    return a


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
        self._a = _multipliers(int(seed), self.depth)
        self.table = np.zeros((self.depth, self.width), dtype=np.float64)
        self._rows = np.arange(self.depth)[:, None]
        # Row starts in the flattened table: one 1-D np.add.at per update.
        self._starts = self._rows * self.width
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
        cells = self._starts + self._indices(keys)
        np.add.at(
            self.table.reshape(-1),
            cells.ravel(),
            np.broadcast_to(counts, cells.shape).ravel(),
        )
        self.total += float(counts.sum())

    def estimate(self, key: int) -> float:
        return float(self.estimate_many([key])[0])

    def estimate_many(self, keys) -> np.ndarray:
        """Point estimates (never below the true counts)."""
        keys = np.atleast_1d(np.asarray(keys, dtype=np.int64))
        if keys.size == 0:
            return np.zeros(0)
        return self.table[self._rows, self._indices(keys)].min(axis=0)


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
        descending-count order (ties by key), but evictions walk the
        minimum counters level by level instead of scanning for each —
        the per-window fold this monitor relies on.
        """
        keys = np.asarray(keys, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.float64)
        order = np.lexsort((keys, -counts))
        self._update_ranked(keys[order].tolist(), counts[order].tolist())

    def _update_ranked(self, keys: list[int], counts: list[float]) -> None:
        """:meth:`update_many` on keys already in heaviest-first order."""
        items = zip(keys, counts)
        scounts, serrors = self._counts, self._errors
        # Until the summary is full nothing is evicted.
        free = self.capacity - len(scounts)
        if free:
            for key, count in items:
                if key in scounts:
                    scounts[key] += count
                    continue
                scounts[key] = count
                serrors[key] = 0.0
                free -= 1
                if not free:
                    break
            else:
                return
        if counts and counts[-1] <= 0.0:
            # Levels need every update to raise its counter.
            for key, count in items:
                self.update(key, count)
            return
        # The minimum counter is taken level by level: ``levels`` files
        # every key under each count it takes, and a level's keys are
        # evicted in key order, skipping keys whose count has moved on.
        # Counts only grow, so no key joins a level once it is the
        # minimum.
        get = scounts.get
        levels: dict[float, list[int]] = {}
        for key, value in scounts.items():
            filed = levels.get(value)
            if filed is None:
                levels[value] = [key]
            else:
                filed.append(key)
        level = 0.0
        queue: list[int] = []
        at = 0
        for key, count in items:
            value = get(key)
            if value is None:
                while True:
                    if at == len(queue):
                        level = min(levels)
                        queue = sorted(levels.pop(level))
                        at = 0
                    victim = queue[at]
                    at += 1
                    if get(victim) == level:
                        break
                del scounts[victim]
                del serrors[victim]
                serrors[key] = level
                value = level
            value += count
            scounts[key] = value
            filed = levels.get(value)
            if filed is None:
                levels[value] = [key]
            else:
                filed.append(key)

    def top(self, k: int | None = None) -> list[tuple[int, float, float]]:
        """``(key, count, error)`` triples, heaviest first."""
        # By key, then stably by count: heaviest first, ties by key.
        items = sorted(
            sorted(self._counts.items()), key=itemgetter(1), reverse=True
        )
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


# -- the monitor -----------------------------------------------------------

#: Space-Saving slots of every monitor: the heavy hitters it keeps, and
#: the most ``top_k`` may ask for.  Its Count-Min sketch is
#: :class:`CountMinSketch`'s default shape (1024 x 4, seed 0).
_CAPACITY = 128

#: Window rows a monitor retains; later rolls still fold into the
#: counters, and the section counts their rows in ``clipped_windows``.
_MAX_WINDOWS = 4096

#: Smoothing weight of the newest window in the imbalance EWMAs.
_EWMA_ALPHA = 0.3

#: Alert thresholds: a drift alert fires at a window-to-window L1 share
#: distance of ``_DRIFT_L1`` or a top-K rank churn of ``_DRIFT_CHURN``; a
#: hotspot alert when one file takes ``_HOTSPOT_SHARE`` of a window.
#: Every window an alert reads must hold ``_MIN_WINDOW_COUNT``
#: observations, so a sparse warmup window cannot trip one.
_DRIFT_L1 = 0.6
_DRIFT_CHURN = 0.5
_HOTSPOT_SHARE = 0.25
_MIN_WINDOW_COUNT = 64


@dataclass(frozen=True)
class PopularityConfig:
    """What one run's streaming popularity observation reports.

    Windows roll every ``window_requests`` observations.  ``top_k`` sizes
    the reported hot list and the rank-churn comparison (at most
    ``_CAPACITY``).  ``estimate_ids`` embeds a normalized estimate vector
    for file ids ``[0, n)`` into the finalized section — what
    sketch-driven repartitioning consumes.  Every other knob is a module
    constant.
    """

    top_k: int = 16
    window_requests: int = 2048
    estimate_ids: int | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.top_k <= _CAPACITY:
            raise ValueError(f"top_k must be in [1, {_CAPACITY}]")
        if self.window_requests < 1:
            raise ValueError("window_requests must be >= 1")
        if self.estimate_ids is not None and self.estimate_ids < 1:
            raise ValueError("estimate_ids must be positive (or None)")


#: Closed windows a monitor holds before adding them to its sketch table
#: (bounds the held tallies' memory).
_FOLD_WINDOWS = 16


class PopularityMonitor(Observer):
    """Streaming popularity/skew monitor fed from a request path.

    The :meth:`observe` hot path only appends to buffers (the file id,
    and a reference to the fork-join's server/size arrays);
    :meth:`observe_batch` takes a whole batch at once.  The per-server
    byte fold, drift comparison, and alerting happen once per window in
    :meth:`_roll`, which also folds the window into the summary and the
    sketch's total; the window tallies reach the sketch table a few
    windows at a time (:meth:`_fold_table`, also run before the sketch
    is read).  Memory is bounded by the sketch table, the Space-Saving
    capacity, one pending window of file ids, ``_FOLD_WINDOWS`` window
    tallies, and ``_MAX_WINDOWS`` retained window rows (rolls past the cap
    are folded into the counters but their rows dropped, counted in the
    section's ``clipped_windows``).
    """

    feeds = True
    run_fields = ("n_servers", "scheme", "engine", "tracer")

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
        self._sketch = CountMinSketch()
        self._summary = SpaceSavingTopK(_CAPACITY)
        # Closed windows' ranked (keys, counts) not yet in the sketch
        # table: adding a few windows at once is one table update instead
        # of one per window.
        self._untabled: list[tuple[np.ndarray, np.ndarray]] = []
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
        self._win_index = 0
        self._t_first: float | None = None
        self._t_last: float | None = None
        # The previous window's (keys, shares, key set), for drift.
        self._prev: tuple[np.ndarray, np.ndarray, set[int]] | None = None
        self._prev_top: list[int] | None = None
        self._prev_count = 0

    def finish(self, end: RunEnd) -> dict[str, Any]:
        return self.finalize()

    # -- hot path ------------------------------------------------------

    def observe(self, file_id, t=None, servers=None, sizes=None) -> None:
        """One request: buffer the file id and the fork-join load arrays.

        Guard call sites with a hoisted flag (like ``lifecycle.track``)
        so disabled observation stays free.  ``servers``/``sizes`` must
        be ndarrays and must not be mutated afterwards — only references
        are kept until the window folds.  ``t`` is simulated seconds; the
        window's rows report the first and last ``t`` they saw.
        """
        if t is not None:
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
        if len(self._pend) >= self._win_requests:
            self._roll()

    def observe_batch(
        self,
        times: np.ndarray,
        file_ids: np.ndarray,
        accrue: Callable[[int, int], None],
    ) -> None:
        """Fold a batch of requests, in arrival order, into the windows.

        For engines that :meth:`attach_cumulative_loads`:
        ``accrue(lo, hi)`` adds the bytes of batch requests ``lo .. hi - 1``
        to the attached vector.  The result equals :meth:`observe` per
        request, each followed by accruing that request's bytes (a roll
        sees the bytes of every earlier request), at the cost of one
        ``accrue`` and one array slice per window segment.
        """
        n = int(file_ids.size)
        lo = 0  # next request to observe
        done = 0  # requests whose bytes are accrued
        while lo < n:
            # The pending window is never full, so each segment holds at
            # least one request.
            hi = min(lo + self._win_requests - len(self._pend), n)
            if self._t_first is None:
                self._t_first = float(times[lo])
            self._t_last = float(times[hi - 1])
            if len(self._pend) + hi - lo < self._win_requests:
                self._pend.extend(file_ids[lo:hi].tolist())
            else:
                # The request that fills the window rolls it before its
                # own bytes accrue.
                accrue(done, hi - 1)
                done = hi - 1
                self._roll(file_ids[lo:hi])
            lo = hi
        accrue(done, n)

    @property
    def sketch(self) -> CountMinSketch:
        """The Count-Min sketch over every closed window."""
        self._fold_table()
        return self._sketch

    @property
    def summary(self) -> SpaceSavingTopK:
        """The Space-Saving summary over every closed window."""
        return self._summary

    def _fold_table(self) -> None:
        """Add the closed windows' keys to the sketch table (their counts
        are already in its total).

        One update over the windows' concatenated keys adds to each cell
        in the same order as one update per window.  A finalized section
        reports the total, never the table, so the table waits until it
        is read or the windows pile up.
        """
        if not self._untabled:
            return
        windows, self._untabled = self._untabled, []
        sketch = self._sketch
        total = sketch.total  # update() would count the windows again
        sketch.update(
            np.concatenate([keys for keys, _c in windows]),
            np.concatenate([counts for _k, counts in windows]),
        )
        sketch.total = total

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

    def _roll(self, tail: np.ndarray | None = None) -> None:
        """Close the window: the pending file ids, then ``tail``'s."""
        if tail is None:
            fids = np.asarray(self._pend, dtype=np.int64)
        elif self._pend:
            fids = np.concatenate((self._pend, tail))
        else:
            fids = tail
        self._pend = []
        keys, counts = _tally(fids)
        total = float(counts.sum())
        self.n_observed += int(fids.size)
        # Heaviest first, ties by key (the tally's keys are ascending).
        order = np.argsort(-counts, kind="stable")
        ranked_keys = keys[order]
        ranked_counts = counts[order]
        ranked = ranked_keys.tolist()
        self._summary._update_ranked(ranked, ranked_counts.tolist())
        self._sketch.total += total
        self._untabled.append((ranked_keys, ranked_counts))
        if len(self._untabled) >= _FOLD_WINDOWS:
            self._fold_table()
        shares = counts / total if total else counts
        key_set = set(dict.fromkeys(ranked))
        top_keys = ranked[: self.config.top_k]

        l1 = churn = None
        if self._prev is not None:
            prev_keys, prev_shares, prev_set = self._prev
            # sum(|share - previous share|) over the union of both
            # windows' keys, absent keys counting 0, added in the union's
            # set order.
            union = key_set | prev_set
            at = np.fromiter(union, dtype=np.int64, count=len(union))
            diff = _shares_at(keys, shares, at) - _shares_at(
                prev_keys, prev_shares, at
            )
            l1 = float(sum(np.abs(diff).tolist()))
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
        # Loads are non-negative, so a positive mean means some load.
        n = loads.size
        mean = float(loads.sum()) / n if n else 0.0
        if mean > 0.0:
            # np.std's own steps (squared deviations, pairwise sum,
            # divide, sqrt) without its per-call overhead: the same float.
            dev = loads - mean
            dev *= dev
            cv = sqrt(float(dev.sum()) / n) / mean
            max_mean = float(loads.max()) / mean
            a = _EWMA_ALPHA
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

        t_start = self._t_first if self._t_first is not None else 0.0
        t_end = self._t_last if self._t_last is not None else t_start
        top_file = top_keys[0] if top_keys else None
        top_share = ranked_counts[0] / total if top_file is not None else 0.0
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
        if len(self.windows) < _MAX_WINDOWS:
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
            total >= _MIN_WINDOW_COUNT and self._prev_count >= _MIN_WINDOW_COUNT
        )
        if eligible and l1 is not None and (
            l1 >= _DRIFT_L1 or (churn is not None and churn >= _DRIFT_CHURN)
        ):
            trigger = "l1" if l1 >= _DRIFT_L1 else "churn"
            alert = {
                "kind": "drift",
                "window": self._win_index,
                "t_start": float(t_start),
                "l1": l1,
                "rank_churn": churn,
                "trigger": trigger,
                "threshold": _DRIFT_L1 if trigger == "l1" else _DRIFT_CHURN,
            }
            self.alerts.append(alert)
            reg.counter("popularity.drift_alerts", **lab).inc()
            if emit:
                self.tracer.event(ev.DRIFT, ts=float(t_start), **alert)
        if (
            total >= _MIN_WINDOW_COUNT
            and top_file is not None
            and top_share >= _HOTSPOT_SHARE
        ):
            alert = {
                "kind": "hotspot",
                "window": self._win_index,
                "t_start": float(t_start),
                "file_id": top_file,
                "share": float(top_share),
                "threshold": _HOTSPOT_SHARE,
            }
            self.alerts.append(alert)
            reg.counter("popularity.hotspot_alerts", **lab).inc()
            if emit:
                self.tracer.event(ev.HOTSPOT, ts=float(t_start), **alert)

        self._prev = (keys, shares, key_set)
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
        sketch = self._sketch
        total = max(sketch.total, 1.0)
        heavy = self._summary.top(self.config.top_k)
        top = [
            {
                "file_id": key,
                "count": float(count),
                "error": float(error),
                "share": float(count / total),
            }
            for key, count, error in heavy
        ]
        section: dict[str, Any] = {
            "schema_version": POPULARITY_SCHEMA_VERSION,
            "scheme": self.scheme,
            "engine": self.engine,
            "requests": int(self.n_observed),
            "n_servers": int(self.n_servers),
            "sketch": {
                "width": sketch.width,
                "depth": sketch.depth,
                "epsilon": sketch.epsilon,
                "delta": sketch.delta,
                "memory_bytes": sketch.memory_bytes,
                "capacity": self._summary.capacity,
            },
            "alpha_est": zipf_alpha_from_counts([c for _k, c, _e in heavy]),
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


# -- ambient config + section sinks (see repro.obs.sections) --------------

#: The popularity :class:`~repro.obs.sections.Channel`.
POPULARITY = Channel(
    "popularity", "popularity", PopularityConfig, "scheme",
    observer=PopularityMonitor,
)
get_popularity_config = POPULARITY.current
use_popularity = POPULARITY.use
collect_popularity = POPULARITY.collect
publish_popularity = POPULARITY.publish


def _shares_at(
    keys: np.ndarray, shares: np.ndarray, query: np.ndarray
) -> np.ndarray:
    """``shares`` of each ``query`` key, 0 where absent (``keys`` sorted)."""
    out = np.zeros(query.size)
    if keys.size:
        at = np.minimum(np.searchsorted(keys, query), keys.size - 1)
        hit = keys[at] == query
        out[hit] = shares[at[hit]]
    return out


def _tally(fids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ids (ascending) and their counts as floats —
    ``np.unique(fids, return_counts=True)``, by ``bincount`` when the ids
    are small."""
    if fids.size and fids.min() >= 0 and fids.max() < 4 * fids.size + 1024:
        tally = np.bincount(fids)
        keys = np.flatnonzero(tally)
        return keys, tally[keys].astype(np.float64)
    keys, counts = np.unique(fids, return_counts=True)
    return keys, counts.astype(np.float64)


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
