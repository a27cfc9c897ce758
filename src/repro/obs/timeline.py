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
  report delay, goodput factor, last-to-finish server) and the
  deterministic ``trace_id`` of its span tree
  (:func:`~repro.obs.causal.request_trace_id`).  The tail is the one
  per-request record of the slowest requests: the causal section keeps
  only edge totals and its conservation check;
* a **tail-attribution report** splitting each exemplar's latency into
  ``queueing + straggling + transfer + join`` components that sum to the
  latency *exactly*: the critical partition is the one whose reported
  completion fired the join, so ``(start - arrival) + (end - start) +
  report_delay = join_at - arrival`` by construction, and ``join`` picks
  up the post-join decode plus any miss penalty.

Default state is a no-op: a run collects nothing unless its
:class:`~repro.cluster.engine.lifecycle.SimulationConfig` carries a
:class:`TimelineConfig` or one is installed ambiently with
:func:`use_timeline`.  Hot-path hooks only buffer raw records in the
run's one :class:`PartitionLog`, which the causal collector reads too;
it sorts them by ``(request, partition)`` once, at finalize, so the
produced section is independent of event ordering — ``limited(inf)`` and
``ps`` yield byte-identical sections, and two identical seeded runs
always do.

Sections are plain JSON-able dicts; they serialize into run manifests
(:mod:`repro.obs.runinfo`), export as Chrome-trace
counter events (:func:`chrome_counter_events`), and render through the
``repro timeline`` CLI subcommand — series, tail attribution and
exemplars (:func:`tail_exemplar_rows`, which ``repro critical`` shares
for the exemplars it rebuilds from a trace).
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import blake2b
from typing import Any

import numpy as np

from repro.obs import events as ev
from repro.obs.causal import _share_rows, request_trace_id
from repro.obs.metrics import Histogram
from repro.obs.sections import Channel, Observer, RunEnd
from repro.obs.tracing import Tracer

__all__ = [
    "TIMELINES",
    "TIMELINE_SCHEMA_VERSION",
    "PartitionLog",
    "TimelineConfig",
    "TimelineCollector",
    "chrome_counter_events",
    "collect_timelines",
    "get_timeline_config",
    "publish_timeline",
    "sparkline",
    "tail_attribution_rows",
    "tail_exemplar_rows",
    "timeline_series_rows",
    "use_timeline",
    "window_width",
]

#: Version of the timeline *section* layout (independent of the manifest
#: schema version, which gates the envelope).
TIMELINE_SCHEMA_VERSION = 2


#: Sim-time windows a run's span is cut into (:func:`window_width`).
TARGET_WINDOWS = 24

#: Slowest steady-state requests kept as tail exemplars.
_TAIL_K = 64

#: Per-window latency reservoir handed to
#: :class:`~repro.obs.metrics.Histogram`.
_RESERVOIR_SIZE = 512


def window_width(span_s: float) -> float:
    """Width in simulated seconds of the windows over a run that spans
    ``[0, span_s]``: the span over :data:`TARGET_WINDOWS`, or 1 s for an
    empty span.  The timeline and the SLO evaluator both window by it, so
    a run always gets ``TARGET_WINDOWS`` or one more windows."""
    return span_s / TARGET_WINDOWS if span_s > 0.0 else 1.0


@dataclass(frozen=True)
class TimelineConfig:
    """Turns one run's sim-time timeline collection on; it has no knobs
    (the window width is :func:`window_width`'s, the tail keeps
    ``_TAIL_K`` exemplars)."""


# -- the partition log ----------------------------------------------------


class PartitionLog:
    """One run's per-partition records, shared by the recording observers.

    :class:`~repro.cluster.engine.lifecycle.RequestLifecycle` builds one
    when any started observer declares ``records`` (timeline, causal);
    the disciplines feed it through the ``record_*_frame`` hooks, which
    only buffer, and :class:`~repro.obs.sections.RunEnd` hands it to the
    collectors.  Whichever collector finalizes first calls :meth:`split`,
    which sorts the records and splits every request's latency along its
    critical path — once per run, however many collectors read it.
    """

    def __init__(self, n_requests: int) -> None:
        # Raw partition records, append-only: each frame holds many
        # requests' partition rows as flat arrays, so a million-request
        # run buffers thousands of frames instead of millions of scalars.
        self._frames: list[tuple[np.ndarray, ...]] = []
        # Per-request facts, filled as the run learns them.
        self.crit_pos = np.full(n_requests, -1, dtype=np.int64)
        self.missed = np.zeros(n_requests, dtype=bool)
        self.straggled = np.zeros(n_requests, dtype=bool)
        #: Set by :meth:`split`: the records as columns ``req``, ``pos``,
        #: ``server``, ``size``, ``start``, ``end``, ``extra``,
        #: ``gfactor`` sorted by ``(request, partition)``; request ``r``'s
        #: rows ``blk_lo[r]:blk_hi[r]``; its critical partition's
        #: ``crit_server``/``crit_bytes`` (``-1``/``0`` without one); its
        #: latency split ``queue + service + transfer + join``; and the
        #: workload fingerprint ``run_key``.
        self.req: np.ndarray | None = None
        self.run_key = ""

    # -- hot-path hooks (buffer only, no arithmetic) ------------------

    def record_partition_frame(
        self, reqs, poss, servers, sizes, starts, ends, extras, gfactors
    ) -> None:
        """Partition reads of many requests: row ``i`` is partition
        ``poss[i]`` of request ``reqs[i]``, served by ``servers[i]``,
        active ``[starts[i], ends[i])`` and reported complete at
        ``ends[i] + extras[i]``.  Arrays are copied."""
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
        """Miss and straggler flags of requests ``reqs``."""
        reqs = np.asarray(reqs, dtype=np.int64)
        self.missed[reqs] = np.asarray(missed, dtype=bool)
        self.straggled[reqs] = np.asarray(straggled, dtype=bool)

    def record_join_frame(self, reqs, poss) -> None:
        """The partitions whose reported completion fired each request's
        join — the critical path for attribution."""
        self.crit_pos[np.asarray(reqs, dtype=np.int64)] = np.asarray(
            poss, dtype=np.int64
        )

    # -- the critical-path split ----------------------------------------

    def split(self, times, file_ids, latencies) -> PartitionLog:
        """Sort the records, fingerprint the workload and split each
        request's latency; returns the log.  Runs once: later calls (the
        run's other collectors) reuse the result.

        ``run_key`` hashes the arrival times, file ids and latencies: two
        passes of one workload see byte-identical arrays, while a load
        sweep's repeated same-scheme runs do not, so the deterministic
        trace ids (:func:`~repro.obs.causal.request_trace_id`) never
        collide in a shared trace.

        Records are lexsorted by ``(request, partition)`` before any
        arithmetic, and each pair is recorded at most once, so the order
        and grouping the frames arrived in never leak into a section.
        The critical partition is the one whose reported completion fired
        the join, so its edges are ``queue = start - arrival``,
        ``service = end - start`` and ``transfer`` (the straggler report
        delay), and ``join = latency - queue - service - transfer`` (the
        post-join decode plus any miss penalty) makes the four sum to the
        latency.  A request without a recorded critical partition is all
        ``join``.
        """
        if self.req is not None:
            return self
        times = np.asarray(times, dtype=np.float64)
        latencies = np.asarray(latencies, dtype=np.float64)
        fp = blake2b(digest_size=8)
        fp.update(times.tobytes())
        fp.update(np.asarray(file_ids, dtype=np.int64).tobytes())
        fp.update(latencies.tobytes())
        self.run_key = fp.hexdigest()
        if self._frames:
            cols = [np.concatenate(col) for col in zip(*self._frames)]
            order = np.lexsort((cols[1], cols[0]))
            for i, col in enumerate(cols):  # one column at a time: low peak
                cols[i] = col[order]
        else:
            ints = np.empty(0, dtype=np.int64)
            cols = [ints, ints, ints] + [np.empty(0)] * 5
        self._frames = []
        req, pos, server, size, start, end, extra, _ = cols
        self.req, self.pos, self.server, self.size = req, pos, server, size
        self.start, self.end, self.extra, self.gfactor = cols[4:]

        n_req = int(latencies.size)
        ids = np.arange(n_req, dtype=np.int64)
        self.blk_lo = np.searchsorted(req, ids, side="left")
        self.blk_hi = np.searchsorted(req, ids, side="right")
        kk = self.blk_hi - self.blk_lo
        crit = self.crit_pos[:n_req]
        valid = (kk > 0) & (crit >= 0) & (crit < kk)
        crow = np.where(valid, self.blk_lo + np.clip(crit, 0, None), 0)
        if req.size:
            # A discipline records each partition position exactly once,
            # so within one request's block ``pos`` is 0..k-1 in order
            # and the critical row sits at ``blk_lo + crit``; verify
            # rather than assume, demoting mismatches to join-only.
            valid &= np.where(valid, pos[crow] == crit, False)
        rows = crow[valid]
        self.queue = np.zeros(n_req)
        self.service = np.zeros(n_req)
        self.transfer = np.zeros(n_req)
        self.crit_server = np.full(n_req, -1, dtype=np.int64)
        self.crit_bytes = np.zeros(n_req)
        self.queue[valid] = start[rows] - times[valid]
        self.service[valid] = end[rows] - start[rows]
        self.transfer[valid] = extra[rows]
        self.crit_server[valid] = server[rows]
        self.crit_bytes[valid] = size[rows]
        self.join = latencies - self.queue - self.service - self.transfer
        return self


# -- the collector --------------------------------------------------------


class TimelineCollector(Observer):
    """Windowed series and tail exemplars from the run's
    :class:`PartitionLog`.

    A discipline that never calls the partition hooks still finalizes
    to a valid (empty-series) section — attribution then charges
    everything to the ``join`` component.
    """

    records = True
    run_fields = ("n_servers", "scheme", "engine", "tracer")

    def __init__(
        self,
        config: TimelineConfig,
        *,
        n_servers: int,
        scheme: str,
        engine: str,
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config
        self.n_servers = int(n_servers)
        self.scheme = scheme
        self.engine = engine
        self.tracer = tracer

    def finish(self, end: RunEnd) -> dict[str, Any]:
        section = self.finalize(end)
        if self.tracer is not None and self.tracer.enabled:
            self._emit(section)
        return section

    def finalize(self, end: RunEnd) -> dict[str, Any]:
        """Aggregate the run's partition log into one JSON-able section.

        Deterministic by construction: the log is sorted by ``(request,
        partition)`` before any float accumulation, so the output depends
        only on the simulated quantities — never on event ordering or the
        wall clock.
        """
        times = np.asarray(end.times, dtype=np.float64)
        latencies = np.asarray(end.latencies, dtype=np.float64)
        n_req = int(latencies.size)
        log = end.log.split(times, end.file_ids, latencies)
        req, server, size = log.req, log.server, log.size
        start, end_s, extra = log.start, log.end, log.extra

        span_end = 0.0
        if req.size:
            span_end = float((end_s + extra).max())
        if n_req:
            span_end = max(span_end, float(times.max()))
        window_s = window_width(span_end)
        n_windows = int(np.floor(span_end / window_s)) + 1 if n_req else 0

        bytes_w = np.zeros((n_windows, self.n_servers))
        busy_w = np.zeros((n_windows, self.n_servers))
        queue_w = np.zeros((n_windows, self.n_servers))
        if req.size and n_windows:
            wi = np.floor(start / window_s).astype(np.int64)
            np.add.at(bytes_w.ravel(), wi * self.n_servers + server, size)
            _accumulate_overlap(busy_w, start, end_s, server, window_s)
            arrival = times[req]
            _accumulate_overlap(queue_w, arrival, start, server, window_s)
        queue_depth = queue_w / window_s if n_windows else queue_w

        latency_rows: list[dict[str, Any]] = []
        if n_req and n_windows:
            wi_req = np.floor(times / window_s).astype(np.int64)
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
                        reservoir_size=_RESERVOIR_SIZE,
                    )
                    hist.observe_many(sample)
                    snap = hist.snapshot()
                    for key in ("mean", "p50", "p95", "p99"):
                        row[key] = snap[key]
                latency_rows.append(row)

        tail = self._finalize_tail(
            times, end.file_ids, latencies, end.warmup_fraction, log
        )

        return {
            "schema_version": TIMELINE_SCHEMA_VERSION,
            "scheme": self.scheme,
            "engine": self.engine,
            "n_servers": self.n_servers,
            "n_requests": n_req,
            "window_s": float(window_s),
            "n_windows": int(n_windows),
            # No sample lies past the last window (every one is at most
            # ``span_end``), so nothing is ever clipped; the two fields
            # stay, always 0, until the next section schema bump.
            "clipped_partitions": 0,
            "clipped_requests": 0,
            "bytes": bytes_w.tolist(),
            "busy_s": busy_w.tolist(),
            "queue_depth": queue_depth.tolist(),
            "latency": latency_rows,
            "tail": tail,
        }

    def _finalize_tail(
        self, times, file_ids, latencies, warmup_fraction, log: PartitionLog
    ) -> dict[str, Any]:
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

        k = min(_TAIL_K, int(steady.size))
        slowest = np.argsort(-steady, kind="stable")[:k] + skip
        # Queueing, straggling, transfer, join: the log's queue,
        # transfer, service and join edges (one row per exemplar).
        comps = np.stack(
            [
                log.queue[slowest],
                log.transfer[slowest],
                log.service[slowest],
                log.join[slowest],
            ],
            axis=1,
        )
        pos, server, size = log.pos, log.server, log.size
        start, end, extra, gfactor = log.start, log.end, log.extra, log.gfactor
        exemplars: list[dict[str, Any]] = []
        for i, r in enumerate(slowest.tolist()):
            arrival = float(times[r])
            lo, hi = int(log.blk_lo[r]), int(log.blk_hi[r])
            crit = int(log.crit_pos[r])
            parts = [
                {
                    "server": int(server[row]),
                    "bytes": float(size[row]),
                    "queue_s": float(start[row] - arrival),
                    "transfer_s": float(end[row] - start[row]),
                    "straggle_s": float(extra[row]),
                    "goodput": float(gfactor[row]),
                    "critical": bool(pos[row] == crit),
                }
                for row in range(lo, hi)
            ]
            queueing, straggling, transfer, join = comps[i].tolist()
            exemplars.append(
                {
                    "req": r,
                    "trace_id": request_trace_id(
                        self.scheme, self.engine, r, log.run_key
                    ),
                    "file_id": int(file_ids[r]),
                    "arrival_s": arrival,
                    "latency_s": float(latencies[r]),
                    "parallelism": hi - lo,
                    "missed": bool(log.missed[r]),
                    "straggled": bool(log.straggled[r]),
                    "last_server": int(log.crit_server[r]),
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
            mean_tail_latency_s=float(np.mean(latencies[slowest])),
            queueing_s=float(means[0]),
            straggling_s=float(means[1]),
            transfer_s=float(means[2]),
            join_s=float(means[3]),
        )
        return tail

    def _emit(self, section: dict[str, Any]) -> None:
        """One ``timeline_window`` trace event per retained window."""
        window_s = section["window_s"]
        for w in range(section["n_windows"]):
            served = section["bytes"][w]
            busy = section["busy_s"][w]
            depth = section["queue_depth"][w]
            self.tracer.event(
                ev.TIMELINE_WINDOW,
                ts=w * window_s,
                scheme=self.scheme,
                window=w,
                window_s=window_s,
                bytes=float(sum(served)),
                busy_max_s=float(max(busy)) if busy else 0.0,
                queue_depth_mean=(
                    float(sum(depth) / len(depth)) if depth else 0.0
                ),
            )


def _accumulate_overlap(target, lo, hi, server, window_s) -> None:
    """Add each ``[lo, hi)`` interval's overlap with every window to
    ``target[window, server]``.  Same-window intervals (the vast majority)
    take a vectorized fast path; spanning ones clip window by window.

    Every interval lies in ``[0, span_end]`` and the windows cover it
    (``floor(span_end / window_s)`` is the last window and ``n_windows *
    window_s > span_end``; float division is monotone), so no index needs
    clipping and no interval runs past the last window."""
    n_servers = target.shape[1]
    hi = np.maximum(hi, lo)
    wlo = np.floor(lo / window_s).astype(np.int64)
    whi = np.floor(hi / window_s).astype(np.int64)
    same = wlo == whi
    np.add.at(
        target.ravel(),
        wlo[same] * n_servers + server[same],
        (hi - lo)[same],
    )
    for i in np.flatnonzero(~same):
        a, b, s = float(lo[i]), float(hi[i]), int(server[i])
        for w in range(int(wlo[i]), int(whi[i]) + 1):
            w_lo, w_hi = w * window_s, (w + 1) * window_s
            target[w, s] += max(0.0, min(b, w_hi) - max(a, w_lo))


# -- ambient config + section sinks (see repro.obs.sections) --------------

#: The timeline :class:`~repro.obs.sections.Channel`: manifest key
#: ``timelines``, :class:`TimelineConfig` ambient config.
TIMELINES = Channel(
    "timeline", "timelines", TimelineConfig, "scheme",
    observer=TimelineCollector,
)
get_timeline_config = TIMELINES.current
use_timeline = TIMELINES.use
collect_timelines = TIMELINES.collect
publish_timeline = TIMELINES.publish


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
    return _share_rows(
        "component",
        {
            c: attribution[f"{c}_s"]
            for c in ("queueing", "straggling", "transfer", "join")
        },
        attribution["mean_tail_latency_s"],
    )


def tail_exemplar_rows(
    exemplars: list[dict[str, Any]], top: int = 10
) -> list[dict[str, Any]]:
    """Table rows of the ``top`` first exemplars (a tail's, or a trace's
    as :func:`~repro.obs.causal.causal_from_trace` rebuilds them)."""
    rows = []
    for e in exemplars[:top]:
        components = e["components"]
        flags = ("S" if e["straggled"] else "") + ("M" if e["missed"] else "")
        rows.append(
            {
                "req": e["req"],
                "file": e["file_id"],
                "latency_s": e["latency_s"],
                "queue_s": components["queueing_s"],
                "straggle_s": components["straggling_s"],
                "transfer_s": components["transfer_s"],
                "join_s": components["join_s"],
                "k": e["parallelism"],
                "last_server": e["last_server"],
                "flags": flags or "-",
                "trace": str(e.get("trace_id", "-"))[:12],
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
