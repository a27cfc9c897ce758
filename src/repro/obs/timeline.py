"""Sim-time timelines and tail-latency attribution.

The metrics registry and the span machinery sample the *wall* clock; this
module samples the *simulated* clock.  A :class:`TimelineCollector` rides
inside :class:`~repro.cluster.engine.lifecycle.RequestLifecycle`, so every
server discipline (``fifo``/``ps``/``limited``) feeds it for free:

* a **windowed timeline** keyed to simulated seconds — per-server busy
  seconds, average queue depth, and bytes served per window, plus
  windowed latency percentiles through the existing streaming
  :class:`~repro.obs.metrics.Histogram`;
* **tail exemplars** — the slowest-K steady-state requests, each with its
  full per-partition breakdown (queue wait, transfer time, straggler
  report delay, goodput factor, last-to-finish server);
* a **tail-attribution report** splitting each exemplar's latency into
  ``queueing + straggling + transfer + join`` components that sum to the
  latency *exactly*: the critical partition is the one whose reported
  completion fired the join, so ``(start - arrival) + (end - start) +
  report_delay = join_at - arrival`` by construction, and ``join`` picks
  up the post-join decode plus any miss penalty.

Default state is a no-op: a run collects nothing unless its
:class:`~repro.cluster.engine.lifecycle.SimulationConfig` carries a
:class:`TimelineConfig` or one is installed ambiently with
:func:`use_timeline`.  Hot-path hooks only buffer raw records; all
aggregation happens once in :meth:`TimelineCollector.finalize`, where
records are re-sorted by ``(request, partition)`` so the produced section
is independent of event ordering — ``limited(inf)`` and ``ps`` yield
byte-identical sections, and two identical seeded runs always do.

Sections are plain JSON-able dicts; they serialize into run manifests
(:mod:`repro.obs.runinfo`, schema version 2), export as Chrome-trace
counter events (:func:`chrome_counter_events`), and render through the
``repro timeline`` / ``repro tail`` CLI subcommands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.obs.metrics import Histogram
from repro.obs.sections import Channel

__all__ = [
    "TIMELINES",
    "TIMELINE_SCHEMA_VERSION",
    "PartitionRecorder",
    "TimelineConfig",
    "TimelineCollector",
    "chrome_counter_events",
    "collect_timelines",
    "get_timeline_config",
    "publish_timeline",
    "sparkline",
    "tail_attribution_rows",
    "timeline_series_rows",
    "use_timeline",
]

#: Version of the timeline *section* layout (independent of the manifest
#: schema version, which gates the envelope).
TIMELINE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TimelineConfig:
    """Knobs of one run's sim-time timeline collection.

    ``window_s=None`` picks the width automatically so the run spans
    ``target_windows`` windows; an explicit width wins.  ``max_windows``
    hard-caps retention — samples past the cap fold into the last window
    (counted in the section's ``clipped_*`` fields) so a mis-sized window
    can never make memory unbounded.  ``tail_k`` bounds the exemplar
    reservoir; ``reservoir_size`` is the per-window latency reservoir
    handed to :class:`~repro.obs.metrics.Histogram`.
    """

    window_s: float | None = None
    target_windows: int = 24
    max_windows: int = 240
    tail_k: int = 64
    reservoir_size: int = 512

    def __post_init__(self) -> None:
        if self.window_s is not None and not self.window_s > 0:
            raise ValueError("window_s must be positive (or None for auto)")
        if self.target_windows < 1:
            raise ValueError("target_windows must be >= 1")
        if self.max_windows < 1:
            raise ValueError("max_windows must be >= 1")
        if self.tail_k < 1:
            raise ValueError("tail_k must be >= 1")
        if self.reservoir_size < 1:
            raise ValueError("reservoir_size must be >= 1")


# -- ambient config + section sinks (see repro.obs.sections) --------------

#: The timeline :class:`~repro.obs.sections.Channel`: manifest key
#: ``timelines``, :class:`TimelineConfig` ambient config.
TIMELINES = Channel("timeline", "timelines", TimelineConfig, "scheme")
get_timeline_config = TIMELINES.current
use_timeline = TIMELINES.use
collect_timelines = TIMELINES.collect
publish_timeline = TIMELINES.publish


# -- the collector --------------------------------------------------------


class PartitionRecorder:
    """The buffer-only per-partition hook API of the recording observers.

    Timeline and causal collection read the same raw records, so both
    collectors inherit these hooks and the lifecycle fans one guarded
    ``for c in lc.recorders:`` out to whichever are enabled — no
    discipline needs observer-specific code.  Hooks only buffer;
    subclasses aggregate in ``finalize`` from :meth:`_merged_records`.
    """

    def __init__(
        self,
        config: Any,
        *,
        n_requests: int,
        n_servers: int,
        scheme: str,
        engine: str,
    ) -> None:
        self.config = config
        self.n_requests = int(n_requests)
        self.n_servers = int(n_servers)
        self.scheme = scheme
        self.engine = engine
        # Raw partition records, append-only (aggregated at finalize).
        # Scalar appends from event-driven engines land in the lists;
        # whole fork-joins from vectorized engines land as array blocks.
        self._req: list[int] = []
        self._pos: list[int] = []
        self._server: list[int] = []
        self._size: list[float] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._extra: list[float] = []
        self._gfactor: list[float] = []
        self._blocks: list[tuple[int, np.ndarray, ...]] = []
        # Whole-batch frames from the vectorized engines: each holds
        # many requests' partition rows as flat arrays, so a
        # million-request run buffers thousands of frames instead of
        # millions of Python scalars.
        self._frames: list[tuple[np.ndarray, ...]] = []
        # Per-request facts, filled as the run learns them.
        self.crit_pos = np.full(self.n_requests, -1, dtype=np.int64)
        self.missed = np.zeros(self.n_requests, dtype=bool)
        self.straggled = np.zeros(self.n_requests, dtype=bool)

    # -- hot-path hooks (buffer only, no arithmetic) ------------------

    def record_partition(
        self,
        req: int,
        pos: int,
        server: int,
        size: float,
        start: float,
        end: float,
        extra: float = 0.0,
        gfactor: float = 1.0,
    ) -> None:
        """One partition read: served by ``server``, active ``[start, end)``,
        reported complete at ``end + extra``."""
        self._req.append(req)
        self._pos.append(pos)
        self._server.append(server)
        self._size.append(size)
        self._start.append(start)
        self._end.append(end)
        self._extra.append(extra)
        self._gfactor.append(gfactor)

    def record_partitions(
        self, req, servers, sizes, starts, ends, extras, gfactors
    ) -> None:
        """Vector form of :meth:`record_partition` (one fork-join at once).

        Buffers the arrays as one block (copied, so callers may reuse
        their buffers); partition positions are ``0..k-1`` in argument
        order.  Finalize merges blocks with scalar records and re-sorts,
        so the two paths produce identical sections.
        """
        self._blocks.append(
            (
                int(req),
                np.array(servers, dtype=np.int64),
                np.array(sizes, dtype=np.float64),
                np.array(starts, dtype=np.float64),
                np.array(ends, dtype=np.float64),
                np.array(extras, dtype=np.float64),
                np.array(gfactors, dtype=np.float64),
            )
        )

    def record_request(self, req: int, *, missed: bool, straggled: bool) -> None:
        self.missed[req] = missed
        self.straggled[req] = straggled

    def record_join(self, req: int, pos: int) -> None:
        """The partition whose reported completion fired request ``req``'s
        join — the critical path for attribution."""
        self.crit_pos[req] = pos

    # -- batched hooks (many requests per call, array-valued) ----------

    def record_partition_frame(
        self, reqs, poss, servers, sizes, starts, ends, extras, gfactors
    ) -> None:
        """Flat-array form of :meth:`record_partition` covering many
        requests at once (``reqs``/``poss`` give each row's request id
        and partition position).  Arrays are copied; finalize merges
        frames with scalar records and blocks, so all three paths
        produce identical sections."""
        self._frames.append(
            (
                np.array(reqs, dtype=np.int64),
                np.array(poss, dtype=np.int64),
                np.array(servers, dtype=np.int64),
                np.array(sizes, dtype=np.float64),
                np.array(starts, dtype=np.float64),
                np.array(ends, dtype=np.float64),
                np.array(extras, dtype=np.float64),
                np.array(gfactors, dtype=np.float64),
            )
        )

    def record_request_frame(self, reqs, missed, straggled) -> None:
        """Array form of :meth:`record_request`."""
        reqs = np.asarray(reqs, dtype=np.int64)
        self.missed[reqs] = np.asarray(missed, dtype=bool)
        self.straggled[reqs] = np.asarray(straggled, dtype=bool)

    def record_join_frame(self, reqs, poss) -> None:
        """Array form of :meth:`record_join`."""
        self.crit_pos[np.asarray(reqs, dtype=np.int64)] = np.asarray(
            poss, dtype=np.int64
        )

    # -- finalize -----------------------------------------------------

    def _merged_records(self) -> tuple[np.ndarray, ...]:
        """Scalar appends and array blocks merged into flat arrays.

        Unsorted — finalize lexsorts by ``(request, partition)``, and
        each ``(request, partition)`` pair is recorded at most once, so
        the merged order never leaks into the section.
        """
        reqs = [np.asarray(self._req, dtype=np.int64)]
        poss = [np.asarray(self._pos, dtype=np.int64)]
        servers = [np.asarray(self._server, dtype=np.int64)]
        sizes = [np.asarray(self._size, dtype=np.float64)]
        starts = [np.asarray(self._start, dtype=np.float64)]
        ends = [np.asarray(self._end, dtype=np.float64)]
        extras = [np.asarray(self._extra, dtype=np.float64)]
        gfactors = [np.asarray(self._gfactor, dtype=np.float64)]
        for r, srv, sz, st, en, ex, gf in self._blocks:
            k = srv.size
            reqs.append(np.full(k, r, dtype=np.int64))
            poss.append(np.arange(k, dtype=np.int64))
            servers.append(srv)
            sizes.append(sz)
            starts.append(st)
            ends.append(en)
            extras.append(np.broadcast_to(ex, (k,)))
            gfactors.append(np.broadcast_to(gf, (k,)))
        for rq, ps, srv, sz, st, en, ex, gf in self._frames:
            reqs.append(rq)
            poss.append(ps)
            servers.append(srv)
            sizes.append(sz)
            starts.append(st)
            ends.append(en)
            extras.append(ex)
            gfactors.append(gf)
        return tuple(
            np.concatenate(parts)
            for parts in (
                reqs, poss, servers, sizes, starts, ends, extras, gfactors
            )
        )


class TimelineCollector(PartitionRecorder):
    """Buffers raw per-partition/per-request records during one run.

    Disciplines call the ``record_*`` hooks (guarded by the lifecycle's
    hoisted ``observe`` flag); :meth:`finalize` does all aggregation.  A
    discipline that never calls the partition hooks still finalizes to a
    valid (empty-series) section — attribution then charges everything to
    the ``join`` component.
    """

    def finalize(
        self,
        *,
        times: np.ndarray,
        file_ids: np.ndarray,
        latencies: np.ndarray,
        warmup_fraction: float = 0.0,
    ) -> dict[str, Any]:
        """Aggregate the buffered records into one JSON-able section.

        Deterministic by construction: records are sorted by
        ``(request, partition)`` before any float accumulation, so the
        output depends only on the simulated quantities — never on event
        ordering or the wall clock.
        """
        cfg = self.config
        n_req = int(np.asarray(latencies).size)
        times = np.asarray(times, dtype=np.float64)
        latencies = np.asarray(latencies, dtype=np.float64)

        req, pos, server, size, start, end, extra, gfactor = (
            self._merged_records()
        )
        order = np.lexsort((pos, req))
        req = req[order]
        pos = pos[order]
        server = server[order]
        size = size[order]
        start = start[order]
        end = end[order]
        extra = extra[order]
        gfactor = gfactor[order]

        span_end = 0.0
        if req.size:
            span_end = float((end + extra).max())
        if n_req:
            span_end = max(span_end, float(times.max()))
        if cfg.window_s is not None:
            window_s = float(cfg.window_s)
        elif span_end > 0.0:
            window_s = span_end / cfg.target_windows
        else:
            window_s = 1.0
        n_windows = (
            min(int(np.floor(span_end / window_s)) + 1, cfg.max_windows)
            if n_req
            else 0
        )

        bytes_w = np.zeros((n_windows, self.n_servers))
        busy_w = np.zeros((n_windows, self.n_servers))
        queue_w = np.zeros((n_windows, self.n_servers))
        clipped_partitions = 0
        if req.size and n_windows:
            wi = np.floor(start / window_s).astype(np.int64)
            clipped_partitions = int(np.count_nonzero(wi >= n_windows))
            wi = np.clip(wi, 0, n_windows - 1)
            np.add.at(bytes_w.ravel(), wi * self.n_servers + server, size)
            _accumulate_overlap(busy_w, start, end, server, window_s)
            arrival = times[req]
            _accumulate_overlap(queue_w, arrival, start, server, window_s)
        queue_depth = queue_w / window_s if n_windows else queue_w

        latency_rows: list[dict[str, Any]] = []
        clipped_requests = 0
        if n_req and n_windows:
            wi_req = np.floor(times / window_s).astype(np.int64)
            clipped_requests = int(np.count_nonzero(wi_req >= n_windows))
            wi_req = np.clip(wi_req, 0, n_windows - 1)
            for w in range(n_windows):
                sample = latencies[wi_req == w]
                row: dict[str, Any] = {
                    "window": w,
                    "t_start": w * window_s,
                    "t_end": (w + 1) * window_s,
                    "count": int(sample.size),
                }
                if sample.size:
                    hist = Histogram(
                        "timeline.window_latency",
                        {},
                        reservoir_size=cfg.reservoir_size,
                    )
                    hist.observe_many(sample)
                    snap = hist.snapshot()
                    for key in ("mean", "p50", "p95", "p99"):
                        row[key] = snap[key]
                latency_rows.append(row)

        tail = self._finalize_tail(
            times, file_ids, latencies, warmup_fraction,
            req, pos, server, size, start, end, extra, gfactor,
        )

        return {
            "schema_version": TIMELINE_SCHEMA_VERSION,
            "scheme": self.scheme,
            "engine": self.engine,
            "n_servers": self.n_servers,
            "n_requests": n_req,
            "window_s": float(window_s),
            "n_windows": int(n_windows),
            "clipped_partitions": clipped_partitions,
            "clipped_requests": clipped_requests,
            "bytes": bytes_w.tolist(),
            "busy_s": busy_w.tolist(),
            "queue_depth": queue_depth.tolist(),
            "latency": latency_rows,
            "tail": tail,
        }

    def _finalize_tail(
        self,
        times,
        file_ids,
        latencies,
        warmup_fraction,
        req,
        pos,
        server,
        size,
        start,
        end,
        extra,
        gfactor,
    ) -> dict[str, Any]:
        cfg = self.config
        n_req = int(latencies.size)
        skip = int(n_req * warmup_fraction)
        steady = latencies[skip:]
        tail: dict[str, Any] = {
            "k": 0,
            "warmup_skipped": skip,
            "exemplars": [],
            "attribution": {
                "requests": int(steady.size),
                "mean_tail_latency_s": 0.0,
                "queueing_s": 0.0,
                "straggling_s": 0.0,
                "transfer_s": 0.0,
                "join_s": 0.0,
                "p99_s": float(np.percentile(steady, 99)) if steady.size else 0.0,
            },
        }
        if not steady.size:
            return tail

        k = min(cfg.tail_k, int(steady.size))
        slowest = np.argsort(-steady, kind="stable")[:k] + skip
        # Partition rows are sorted by request id, so each request's block
        # is one contiguous slice.
        blk_lo = np.searchsorted(req, slowest, side="left")
        blk_hi = np.searchsorted(req, slowest, side="right")

        comps = np.zeros((k, 4))  # queueing, straggling, transfer, join
        exemplars: list[dict[str, Any]] = []
        for i in range(k):
            r = int(slowest[i])
            lat = float(latencies[r])
            arrival = float(times[r])
            lo, hi = int(blk_lo[i]), int(blk_hi[i])
            parts: list[dict[str, Any]] = []
            crit_row = -1
            crit = int(self.crit_pos[r])
            for row in range(lo, hi):
                parts.append(
                    {
                        "server": int(server[row]),
                        "bytes": float(size[row]),
                        "queue_s": float(start[row] - arrival),
                        "transfer_s": float(end[row] - start[row]),
                        "straggle_s": float(extra[row]),
                        "goodput": float(gfactor[row]),
                        "critical": bool(pos[row] == crit),
                    }
                )
                if pos[row] == crit:
                    crit_row = row
            if crit_row >= 0:
                queueing = float(start[crit_row] - arrival)
                transfer = float(end[crit_row] - start[crit_row])
                straggling = float(extra[crit_row])
                last_server = int(server[crit_row])
            else:
                # Discipline recorded no partitions (or no join): charge
                # the whole latency to the join component.
                queueing = transfer = straggling = 0.0
                last_server = -1
            join = lat - queueing - transfer - straggling
            comps[i] = (queueing, straggling, transfer, join)
            exemplars.append(
                {
                    "req": r,
                    "file_id": int(file_ids[r]),
                    "arrival_s": arrival,
                    "latency_s": lat,
                    "parallelism": hi - lo,
                    "missed": bool(self.missed[r]),
                    "straggled": bool(self.straggled[r]),
                    "last_server": last_server,
                    "components": {
                        "queueing_s": queueing,
                        "straggling_s": straggling,
                        "transfer_s": transfer,
                        "join_s": join,
                    },
                    "partitions": parts,
                }
            )
        tail["k"] = k
        tail["exemplars"] = exemplars
        means = comps.mean(axis=0)
        tail["attribution"].update(
            mean_tail_latency_s=float(
                np.mean([e["latency_s"] for e in exemplars])
            ),
            queueing_s=float(means[0]),
            straggling_s=float(means[1]),
            transfer_s=float(means[2]),
            join_s=float(means[3]),
        )
        return tail


def _accumulate_overlap(target, lo, hi, server, window_s) -> None:
    """Add each ``[lo, hi)`` interval's overlap with every window to
    ``target[window, server]``; intervals past the last window fold into
    it.  Same-window intervals (the vast majority) take a vectorized fast
    path; spanning ones clip window by window."""
    n_windows, n_servers = target.shape
    hi = np.maximum(hi, lo)
    wlo = np.clip(np.floor(lo / window_s).astype(np.int64), 0, n_windows - 1)
    whi = np.clip(np.floor(hi / window_s).astype(np.int64), 0, n_windows - 1)
    same = wlo == whi
    np.add.at(
        target.ravel(),
        wlo[same] * n_servers + server[same],
        (hi - lo)[same],
    )
    for i in np.flatnonzero(~same):
        a, b, s = float(lo[i]), float(hi[i]), int(server[i])
        for w in range(int(wlo[i]), int(whi[i]) + 1):
            w_lo = w * window_s
            w_hi = (w + 1) * window_s if w < n_windows - 1 else max(
                b, (w + 1) * window_s
            )
            target[w, s] += max(0.0, min(b, w_hi) - max(a, w_lo))


# -- rendering helpers ----------------------------------------------------

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values) -> str:
    """Unicode block-character sparkline of a numeric series."""
    vals = [float(v) for v in values]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return _BLOCKS[0] * len(vals)
    scale = (len(_BLOCKS) - 1) / (hi - lo)
    return "".join(_BLOCKS[int(round((v - lo) * scale))] for v in vals)


def timeline_series_rows(section: dict[str, Any]) -> list[dict[str, Any]]:
    """Per-series sparkline/min/max rows for one timeline section."""
    window_s = section["window_s"]
    bytes_w = np.asarray(section["bytes"], dtype=np.float64)
    busy_w = np.asarray(section["busy_s"], dtype=np.float64)
    depth_w = np.asarray(section["queue_depth"], dtype=np.float64)
    series: list[tuple[str, np.ndarray]] = []
    if bytes_w.size:
        series.append(("bytes/window", bytes_w.sum(axis=1)))
        series.append(("busy frac (max server)", busy_w.max(axis=1) / window_s))
        series.append(("queue depth (mean)", depth_w.mean(axis=1)))
    p99 = [row.get("p99") for row in section["latency"]]
    if any(v is not None for v in p99):
        series.append(
            ("p99 latency (s)", np.asarray(
                [v if v is not None else 0.0 for v in p99]
            ))
        )
    rows = []
    for name, values in series:
        rows.append(
            {
                "series": name,
                "spark": sparkline(values),
                "min": float(values.min()),
                "max": float(values.max()),
            }
        )
    return rows


def tail_attribution_rows(section: dict[str, Any]) -> list[dict[str, Any]]:
    """Component/seconds/share rows of one section's tail attribution."""
    attribution = section["tail"]["attribution"]
    total = attribution["mean_tail_latency_s"]
    rows = []
    for component in ("queueing", "straggling", "transfer", "join"):
        seconds = attribution[f"{component}_s"]
        rows.append(
            {
                "component": component,
                "seconds": seconds,
                "share_pct": 100.0 * seconds / total if total else 0.0,
            }
        )
    return rows


def chrome_counter_events(
    sections: list[dict[str, Any]], pid: int = 2
) -> list[dict[str, Any]]:
    """Chrome trace-event counters ("C" phase) from timeline sections.

    One counter track per section (``<scheme>#<i>``) on its own process
    id so the sim-second axis does not interleave with the wall-clock
    span axis; loads alongside the span timeline in ``chrome://tracing``
    or Perfetto.
    """
    events: list[dict[str, Any]] = []
    if not sections:
        return events
    events.append(
        {
            "ph": "M",
            "pid": pid,
            "tid": 1,
            "name": "process_name",
            "args": {"name": "repro.simtime"},
        }
    )
    for i, section in enumerate(sections):
        label = f"{section['scheme']}#{i}"
        window_s = section["window_s"]
        bytes_w = np.asarray(section["bytes"], dtype=np.float64)
        busy_w = np.asarray(section["busy_s"], dtype=np.float64)
        depth_w = np.asarray(section["queue_depth"], dtype=np.float64)
        for w in range(section["n_windows"]):
            ts = w * window_s * 1e6  # simulated seconds -> "microseconds"
            events.append(
                {
                    "ph": "C",
                    "pid": pid,
                    "tid": 1,
                    "name": f"{label} bytes",
                    "ts": ts,
                    "args": {"bytes": float(bytes_w[w].sum())},
                }
            )
            events.append(
                {
                    "ph": "C",
                    "pid": pid,
                    "tid": 1,
                    "name": f"{label} busy",
                    "ts": ts,
                    "args": {"max_busy_frac": float(busy_w[w].max()) / window_s},
                }
            )
            events.append(
                {
                    "ph": "C",
                    "pid": pid,
                    "tid": 1,
                    "name": f"{label} queue",
                    "ts": ts,
                    "args": {"mean_depth": float(depth_w[w].mean())},
                }
            )
    return events
