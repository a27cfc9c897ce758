"""Cluster health board: fold trace events into renderable dash frames.

The view layer of the live-telemetry pipeline (`repro dash`): a
:class:`DashBoard` folds JSONL trace events — from a finished file, a
live ``--follow`` tail, or streaming stdin — into bounded per-scheme
state, and :func:`render_frame` draws the board as text:

* per-server utilization bars (bytes-served share of the busiest
  server), reconstructed from ``read`` events exactly like
  :func:`repro.obs.replay.per_server_loads`;
* queue depth and byte throughput from ``timeline_window`` events;
* the hot-key top-K via the same Space-Saving summary
  :mod:`repro.obs.popularity` uses online;
* active SLO alerts (opened by ``slo_breach``, cleared by
  ``slo_recovered``) and per-objective budget remaining;
* rolling latency percentiles over a bounded window of recent
  ``read_done`` completions;
* the causal critical-path edge split (queue/service/transfer/join
  seconds summed over each request's critical chain), folded from
  ``cspan`` span-tree events.

Folding is incremental and bounded-memory, so following a live
million-request trace is safe.  :func:`dash_from_manifest` builds the
same board from a finished run manifest instead (schema v2+ sections:
``timelines``, ``popularity``, ``slo``, ``causal``, plus the metrics
snapshot), so
``repro dash results/fig13.json`` works without a trace.

Rendering has two modes: a TTY mode that clears the screen between
frames (the live ``repro dash --follow`` view) and a plain frame mode
for CI and logs.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator, Mapping

import numpy as np

from repro.obs import events as ev
from repro.obs.metrics import parse_snapshot_key
from repro.obs.popularity import SpaceSavingTopK

__all__ = [
    "DashBoard",
    "dash_from_manifest",
    "follow_lines",
    "parse_json_lines",
    "render_frame",
]

#: Rolling completion-latency window per scheme (enough for a stable p99).
_LATENCY_WINDOW = 4096
#: Hot-key summary capacity per scheme.
_TOPK_CAPACITY = 64


class _SchemeState:
    """Bounded fold of one scheme's events."""

    __slots__ = (
        "scheme",
        "server_bytes",
        "requests",
        "misses",
        "stragglers",
        "latencies",
        "hot",
        "active_alerts",
        "total_breaches",
        "budget_remaining",
        "queue_depth",
        "window_bytes",
        "last_ts",
        "crit_edges",
        "crit_requests",
    )

    def __init__(self, scheme: str) -> None:
        self.scheme = scheme
        self.server_bytes = np.zeros(0)
        self.requests = 0
        self.misses = 0
        self.stragglers = 0
        self.latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self.hot = SpaceSavingTopK(_TOPK_CAPACITY)
        #: (objective, severity) -> the opening ``slo_breach`` record.
        self.active_alerts: dict[tuple[str, str], dict[str, Any]] = {}
        self.total_breaches = 0
        #: objective -> last reported budget fraction remaining.
        self.budget_remaining: dict[str, float] = {}
        self.queue_depth: float | None = None
        self.window_bytes: float | None = None
        self.last_ts = 0.0
        #: edge name -> critical-path seconds summed over requests.
        self.crit_edges: dict[str, float] = {
            "queue": 0.0, "service": 0.0, "transfer": 0.0, "join": 0.0
        }
        self.crit_requests = 0


class DashBoard:
    """Incremental event fold across every scheme in a trace."""

    def __init__(self) -> None:
        self._schemes: dict[str, _SchemeState] = {}
        self.n_events = 0
        self.n_unknown = 0
        # Cluster-wide membership fold: ``membership``/``epoch`` events
        # carry no scheme label (one topology serves every scheme), so
        # this state lives on the board, not per scheme.  ``membership``
        # maps epoch index -> {n_servers, added, removed, t, moved}
        # where ``moved`` maps a label (scheme, or "plan" when folded
        # from ``repartition_time`` trace events) to bytes moved.
        self.membership: dict[int, dict[str, Any]] = {}
        self.last_membership_event: dict[str, Any] | None = None
        self.current_epoch: int | None = None
        self.n_servers: int | None = None

    @property
    def schemes(self) -> list[str]:
        return sorted(self._schemes)

    def state(self, scheme: str) -> _SchemeState:
        st = self._schemes.get(scheme)
        if st is None:
            st = self._schemes[scheme] = _SchemeState(scheme)
        return st

    def feed(self, record: Mapping[str, Any]) -> None:
        """Fold one trace record; unknown kinds count but never raise."""
        kind = record.get("event")
        self.n_events += 1
        ts = record.get("ts")
        if kind == ev.READ:
            st = self.state(str(record.get("scheme", "?")))
            st.requests += 1
            st.misses += bool(record.get("miss"))
            st.stragglers += bool(record.get("straggler"))
            servers = record.get("servers")
            sizes = record.get("sizes")
            if servers:
                sv = np.asarray(servers, dtype=np.int64)
                sz = np.asarray(
                    sizes if sizes is not None else np.ones(sv.size),
                    dtype=np.float64,
                )
                width = int(sv.max()) + 1
                if width > st.server_bytes.size:
                    grown = np.zeros(max(width, 2 * st.server_bytes.size))
                    grown[: st.server_bytes.size] = st.server_bytes
                    st.server_bytes = grown
                np.add.at(st.server_bytes, sv, sz)
            if "file_id" in record:
                st.hot.update(int(record["file_id"]))
            if ts is not None:
                st.last_ts = float(ts)
        elif kind == ev.READ_DONE:
            st = self.state(str(record.get("scheme", "?")))
            if "latency" in record:
                st.latencies.append(float(record["latency"]))
            if ts is not None:
                st.last_ts = float(ts)
        elif kind == ev.SLO_BREACH:
            st = self.state(str(record.get("scheme", "?")))
            key = (
                str(record.get("objective", "?")),
                str(record.get("severity", "?")),
            )
            st.active_alerts[key] = dict(record)
            st.total_breaches += 1
        elif kind == ev.SLO_RECOVERED:
            st = self.state(str(record.get("scheme", "?")))
            st.active_alerts.pop(
                (
                    str(record.get("objective", "?")),
                    str(record.get("severity", "?")),
                ),
                None,
            )
        elif kind == ev.TIMELINE_WINDOW:
            st = self.state(str(record.get("scheme", "?")))
            if "queue_depth_mean" in record:
                st.queue_depth = float(record["queue_depth_mean"])
            if "bytes" in record:
                st.window_bytes = float(record["bytes"])
        elif kind == ev.CSPAN:
            # Causal span trees: the root counts the request, the
            # critical fetch contributes queue/service/transfer seconds,
            # the join span the residual join edge.  O(1) state per
            # scheme, so following a million-request trace stays cheap.
            st = self.state(str(record.get("scheme", "?")))
            name = record.get("name")
            if name == "request":
                st.crit_requests += 1
            elif name == "fetch" and record.get("critical"):
                st.crit_edges["queue"] += float(record.get("queue_s", 0.0))
                st.crit_edges["service"] += float(
                    record.get("service_s", 0.0)
                )
                st.crit_edges["transfer"] += float(
                    record.get("transfer_s", 0.0)
                )
            elif name == "join":
                st.crit_edges["join"] += float(record.get("join_s", 0.0))
        elif kind == ev.MEMBERSHIP:
            self.last_membership_event = dict(record)
        elif kind == ev.EPOCH:
            idx = int(record.get("epoch", 0))
            row = self.membership.setdefault(idx, {"moved": {}})
            row["n_servers"] = int(record.get("n_servers", 0))
            row["added"] = len(record.get("added") or ())
            row["removed"] = len(record.get("removed") or ())
            row["t"] = float(record.get("ts", 0.0))
            if self.current_epoch is None or idx >= self.current_epoch:
                self.current_epoch = idx
                self.n_servers = row["n_servers"]
        elif kind == ev.REPARTITION_TIME and record.get("mode") == "epoch":
            row = self.membership.setdefault(
                int(record.get("epoch", 0)), {"moved": {}}
            )
            row["moved"]["plan"] = row["moved"].get("plan", 0.0) + float(
                record.get("moved_bytes", 0.0)
            )
        elif kind == ev.SIMULATION_END:
            st = self.state(str(record.get("scheme", "?")))
            n = record.get("n_servers")
            if n and int(n) > st.server_bytes.size:
                grown = np.zeros(int(n))
                grown[: st.server_bytes.size] = st.server_bytes
                st.server_bytes = grown
        elif kind not in ev.EVENT_LAYER:
            self.n_unknown += 1

    def feed_many(self, records) -> None:
        for record in records:
            if isinstance(record, Mapping):
                self.feed(record)


def dash_from_manifest(manifest: Mapping[str, Any]) -> DashBoard:
    """Build a board from a finished run manifest's sections.

    Per-server loads come out of the ``sim.server_bytes`` metric series
    (labels parsed back from the snapshot keys); the hot list and the
    imbalance come from the last popularity section per scheme; alerts
    and budgets from the ``slo`` sections.  ``manifest`` must have the
    current schema (:func:`repro.obs.runinfo.validate_manifest`).
    """
    board = DashBoard()
    for key, value in manifest["metrics"].items():
        try:
            name, labels = parse_snapshot_key(key)
        except ValueError:
            continue
        scheme = labels.get("scheme", "?")
        if name == "sim.server_bytes" and "server_id" in labels:
            st = board.state(scheme)
            sid = int(labels["server_id"])
            if sid >= st.server_bytes.size:
                grown = np.zeros(sid + 1)
                grown[: st.server_bytes.size] = st.server_bytes
                st.server_bytes = grown
            st.server_bytes[sid] += float(value)
        elif name == "sim.requests":
            board.state(scheme).requests += int(value)
        elif name == "sim.misses":
            board.state(scheme).misses += int(value)
        elif name == "sim.straggler_reads":
            board.state(scheme).stragglers += int(value)
        elif name == "sim.latency_seconds" and isinstance(value, Mapping):
            st = board.state(scheme)
            for pct in ("p50", "p95", "p99"):
                if pct in value:
                    st.latencies.append(float(value[pct]))
    for section in manifest["popularity"]:
        st = board.state(str(section.get("scheme", "?")))
        for entry in section.get("top") or []:
            st.hot.update(int(entry["file_id"]), float(entry["count"]))
    for section in manifest["causal"]:
        st = board.state(str(section.get("scheme", "?")))
        edges = section.get("edges") or {}
        st.crit_edges["queue"] += float(edges.get("queue_s", 0.0))
        st.crit_edges["service"] += float(edges.get("service_s", 0.0))
        st.crit_edges["transfer"] += float(edges.get("transfer_s", 0.0))
        st.crit_edges["join"] += float(edges.get("join_s", 0.0))
        st.crit_requests += int(edges.get("requests", 0))
    for section in manifest["slo"]:
        st = board.state(str(section.get("scheme", "?")))
        for objective in section.get("objectives", ()):
            st.budget_remaining[str(objective.get("name", "?"))] = float(
                objective.get("budget_remaining", 1.0)
            )
        for alert in section.get("alerts", ()):
            st.total_breaches += 1
            if alert.get("active"):
                st.active_alerts[
                    (
                        str(alert.get("objective", "?")),
                        str(alert.get("severity", "?")),
                    )
                ] = dict(alert)
    for section in manifest["membership"]:
        scheme = str(section.get("scheme", "?"))
        for entry in section.get("epochs") or []:
            idx = int(entry.get("epoch", 0))
            row = board.membership.setdefault(idx, {"moved": {}})
            row.setdefault("n_servers", int(entry.get("n_servers", 0)))
            row.setdefault("added", len(entry.get("added") or ()))
            row.setdefault("removed", len(entry.get("removed") or ()))
            row.setdefault("t", float(entry.get("t_start", 0.0)))
            moved = entry.get("moved_bytes")
            if moved is not None:
                row["moved"][scheme] = float(moved)
            if board.current_epoch is None or idx >= board.current_epoch:
                board.current_epoch = idx
                board.n_servers = row["n_servers"]
        events = section.get("events") or []
        if events and board.last_membership_event is None:
            board.last_membership_event = dict(events[-1])
    return board


# -- rendering -------------------------------------------------------------


def _bar(fraction: float, width: int) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(n) < 1024 or unit == "TiB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{n:.0f}B"
        n /= 1024
    return f"{n:.1f}TiB"  # pragma: no cover - loop always returns


def render_frame(
    board: DashBoard,
    *,
    k: int = 5,
    bar_width: int = 24,
    max_servers: int = 32,
) -> str:
    """One plain-text frame of the cluster health board."""
    lines: list[str] = []
    if not board.schemes and not board.membership:
        return "(no simulator events yet)\n"
    for scheme in board.schemes:
        st = board.state(scheme)
        lats = np.asarray(st.latencies, dtype=np.float64)
        head = f"== {scheme} ==  requests={st.requests}"
        if st.requests:
            head += f"  miss={st.misses / st.requests:.1%}"
        if st.stragglers:
            head += f"  stragglers={st.stragglers}"
        if st.last_ts:
            head += f"  t={st.last_ts:.1f}s"
        lines.append(head)
        if lats.size:
            p50, p95, p99 = np.percentile(lats, [50, 95, 99])
            lines.append(
                f"latency (last {lats.size}): "
                f"p50={p50:.4f}s p95={p95:.4f}s p99={p99:.4f}s"
            )
        if st.queue_depth is not None or st.window_bytes is not None:
            parts = []
            if st.queue_depth is not None:
                parts.append(f"queue_depth={st.queue_depth:.2f}")
            if st.window_bytes is not None:
                parts.append(f"window_bytes={_fmt_bytes(st.window_bytes)}")
            lines.append("  ".join(parts))
        crit_total = sum(st.crit_edges.values())
        if st.crit_requests and crit_total > 0:
            split = "  ".join(
                f"{edge}={seconds / crit_total:.1%}"
                for edge, seconds in st.crit_edges.items()
            )
            lines.append(
                f"critical path ({st.crit_requests} requests, "
                f"{crit_total:.1f}s): {split}"
            )
        loads = st.server_bytes
        busy = loads[loads > 0]
        if busy.size:
            peak = float(loads.max())
            mean = float(busy.mean())
            lines.append(
                f"servers ({int((loads > 0).sum())} busy, "
                f"max/mean={peak / mean:.2f}):"
            )
            shown = min(int(loads.size), max_servers)
            for sid in range(shown):
                share = loads[sid] / peak if peak else 0.0
                lines.append(
                    f"  s{sid:<3d} |{_bar(share, bar_width)}| "
                    f"{_fmt_bytes(float(loads[sid]))}"
                )
            if loads.size > shown:
                lines.append(f"  ... {int(loads.size) - shown} more servers")
        top = st.hot.top(k)
        if top:
            hot = "  ".join(
                f"f{fid}:{int(count)}" for fid, count, _err in top
            )
            lines.append(f"hot keys: {hot}")
        if st.budget_remaining:
            budgets = "  ".join(
                f"{name}={left:.0%}"
                for name, left in sorted(st.budget_remaining.items())
            )
            lines.append(f"slo budget left: {budgets}")
        if st.active_alerts:
            for (objective, severity), alert in sorted(
                st.active_alerts.items()
            ):
                burn = alert.get("burn") or alert.get("peak_burn")
                burn_s = f" burn={float(burn):.1f}x" if burn else ""
                lines.append(
                    f"ALERT [{severity}] {objective}{burn_s} "
                    f"(since t={float(alert.get('t_start', 0.0)):.1f}s)"
                )
        elif st.total_breaches:
            lines.append(
                f"alerts: none active ({st.total_breaches} total breaches)"
            )
        else:
            lines.append("alerts: none")
        lines.append("")
    if board.membership:
        head = "== cluster membership =="
        if board.n_servers is not None:
            head += f"  servers={board.n_servers}"
        if board.current_epoch is not None:
            head += f"  epoch={board.current_epoch}"
        lines.append(head)
        last = board.last_membership_event
        if last:
            t_last = float(last.get("ts", last.get("t", 0.0)) or 0.0)
            lines.append(
                f"last event: {last.get('kind', '?')} "
                f"s{last.get('server_id', '?')} at t={t_last:.1f}s"
            )
        lines.append("epoch | servers | change | bytes moved")
        for idx in sorted(board.membership):
            row = board.membership[idx]
            delta = "".join(
                part
                for part, n in (
                    (f"+{row.get('added', 0)}", row.get("added", 0)),
                    (f"-{row.get('removed', 0)}", row.get("removed", 0)),
                )
                if n
            ) or "-"
            moved = row.get("moved") or {}
            moved_s = (
                "  ".join(
                    f"{label}={_fmt_bytes(b)}"
                    for label, b in sorted(moved.items())
                )
                if moved
                else "-"
            )
            lines.append(
                f"  {idx:<3d} | {row.get('n_servers', '?'):>7} "
                f"| {delta:<6} | {moved_s}"
            )
        lines.append("")
    if board.n_unknown:
        lines.append(f"({board.n_unknown} unknown event records skipped)")
        lines.append("")
    return "\n".join(lines)


# -- live following --------------------------------------------------------


def follow_lines(path, *, poll_s: float = 0.5, idle_limit: float | None = None):
    """Yield complete JSONL lines from a growing trace file.

    Only lines terminated by a newline are yielded — a partially written
    final line (the writer mid-record) stays buffered until its newline
    arrives, so a live follow never feeds the board a truncated record.
    Stops after ``idle_limit`` seconds without growth (``None`` follows
    forever).
    """
    import time

    buffer = ""
    idle = 0.0
    with open(path, "r", encoding="utf-8") as fh:
        while True:
            chunk = fh.read(65536)
            if chunk:
                idle = 0.0
                buffer += chunk
                while True:
                    line, sep, rest = buffer.partition("\n")
                    if not sep:
                        break
                    buffer = rest
                    if line.strip():
                        yield line
            else:
                if idle_limit is not None and idle >= idle_limit:
                    return
                time.sleep(poll_s)
                idle += poll_s


def parse_json_lines(lines) -> Iterator[dict[str, Any]]:
    """JSON-object records out of an iterable of lines; junk is skipped."""
    import json

    for line in lines:
        try:
            record = json.loads(line)
        except (ValueError, TypeError):
            continue
        if isinstance(record, dict):
            yield record
