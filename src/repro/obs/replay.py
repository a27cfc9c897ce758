"""Replay JSONL traces into per-server load vectors and summaries.

The simulator's ``read`` events carry the chosen servers and per-partition
byte counts of every fork-join request, so a trace file is sufficient to
reconstruct the exact per-server load vector a run produced in-process
(``SimulationResult.server_bytes``) — the property the round-trip test in
``tests/test_obs/test_replay_roundtrip.py`` pins down and the
``python -m repro stats`` subcommand exposes.

Traces may interleave several schemes (a traced ``compare`` run); every
function here groups by the ``scheme`` field.

Replay is *tolerant*: records with unknown event names — a trace written
by a newer build, or hand-annotated — are skipped rather than raised on,
and :func:`unknown_events` counts them so ``repro stats`` can surface
the skips.  Lines that are not JSON objects and simulator records
missing their required fields are likewise dropped.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.obs import events as ev

__all__ = [
    "KNOWN_EVENTS",
    "iter_trace",
    "load_events",
    "event_counts",
    "metrics_snapshots",
    "per_server_loads",
    "load_timeline",
    "latency_samples",
    "span_tree",
    "trace_summary",
    "unknown_events",
]

#: every event name this build's replay code understands.
KNOWN_EVENTS = frozenset(ev.EVENT_LAYER)


def iter_trace(path: str | Path) -> Iterator[dict[str, Any]]:
    """Yield one record per parseable non-empty line of a JSONL trace.

    Lines that are not valid JSON objects are skipped — a truncated
    final line from a killed run must not poison the whole replay.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                yield record


def load_events(source) -> list[dict[str, Any]]:
    """Normalize a path, a sink, or an iterable of records to a list."""
    if isinstance(source, (str, Path)):
        return list(iter_trace(source))
    records = getattr(source, "records", None)  # RingBufferSink
    if records is not None:
        source = records
    return [r for r in source if isinstance(r, dict)]


def unknown_events(source) -> dict[str, int]:
    """Counts of records whose event name is outside :data:`KNOWN_EVENTS`.

    Replay functions skip these silently (forward compatibility with
    traces from newer builds); this is the counter that makes the skips
    visible.  Records with no ``event`` field count under ``"?"``.
    """
    counts: dict[str, int] = {}
    for record in load_events(source):
        name = record.get("event")
        if name not in KNOWN_EVENTS:
            key = "?" if name is None else str(name)
            counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def event_counts(source) -> dict[str, int]:
    """How many records of each event name the trace holds."""
    counts: dict[str, int] = {}
    for record in load_events(source):
        name = record.get("event", "?")
        counts[name] = counts.get(name, 0) + 1
    return dict(sorted(counts.items()))


def _reads_by_scheme(events) -> dict[str, list[dict[str, Any]]]:
    groups: dict[str, list[dict[str, Any]]] = {}
    for record in events:
        if (
            record.get("event") == ev.READ
            and "ts" in record
            and "servers" in record
            and "sizes" in record
        ):
            groups.setdefault(record.get("scheme", "?"), []).append(record)
    return groups


def _declared_widths(events) -> dict[str, int]:
    """Cluster sizes announced by ``simulation_end`` events, per scheme.

    Keeps idle trailing servers in reconstructed load vectors, so the
    imbalance factor matches the in-process one exactly.
    """
    widths: dict[str, int] = {}
    for record in events:
        if record.get("event") == ev.SIMULATION_END and "n_servers" in record:
            scheme = record.get("scheme", "?")
            widths[scheme] = max(
                widths.get(scheme, 0), int(record["n_servers"])
            )
    return widths


def _width_for(
    scheme: str,
    reads: list[dict[str, Any]],
    declared: dict[str, int],
    n_servers: int | None,
) -> int:
    if n_servers:
        return n_servers
    if scheme in declared:
        return declared[scheme]
    return 1 + max((max(r["servers"]) for r in reads if r["servers"]), default=0)


def per_server_loads(source, n_servers: int | None = None) -> dict[str, np.ndarray]:
    """Per-scheme per-server bytes served, rebuilt from ``read`` events.

    Identical (up to float addition order) to the ``server_bytes`` array the
    run reported in-process.  ``n_servers`` widens the vectors when trailing
    servers received no bytes; by default each vector spans the largest
    server id seen for that scheme.
    """
    events = load_events(source)
    declared = _declared_widths(events)
    out: dict[str, np.ndarray] = {}
    for scheme, reads in _reads_by_scheme(events).items():
        width = _width_for(scheme, reads, declared, n_servers)
        loads = np.zeros(width)
        for record in reads:
            np.add.at(
                loads,
                np.asarray(record["servers"], dtype=np.int64),
                np.asarray(record["sizes"], dtype=np.float64),
            )
        out[scheme] = loads
    return out


def load_timeline(
    source,
    n_buckets: int = 20,
    n_servers: int | None = None,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-scheme ``(bucket_edges, loads)`` time series of server load.

    ``loads`` has shape ``(n_buckets, n_servers)``: bytes served per server
    within each arrival-time bucket.  Cumulative-summing along axis 0 gives
    the running load vector the online adjuster balances against.
    """
    if n_buckets < 1:
        raise ValueError("n_buckets must be positive")
    events = load_events(source)
    declared = _declared_widths(events)
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for scheme, reads in _reads_by_scheme(events).items():
        ts = np.array([r["ts"] for r in reads])
        width = _width_for(scheme, reads, declared, n_servers)
        lo, hi = float(ts.min()), float(ts.max())
        edges = np.linspace(lo, hi, n_buckets + 1)
        # Every arrival must land in a bucket; nextafter keeps the last one.
        bucket = np.clip(
            np.searchsorted(edges, ts, side="right") - 1, 0, n_buckets - 1
        )
        loads = np.zeros((n_buckets, width))
        for b, record in zip(bucket, reads):
            np.add.at(
                loads[b],
                np.asarray(record["servers"], dtype=np.int64),
                np.asarray(record["sizes"], dtype=np.float64),
            )
        out[scheme] = (edges, loads)
    return out


def latency_samples(source) -> dict[str, np.ndarray]:
    """Per-scheme read latencies collected from ``read_done`` events."""
    events = load_events(source)
    groups: dict[str, list[float]] = {}
    for record in events:
        if record.get("event") == ev.READ_DONE and "latency" in record:
            groups.setdefault(record.get("scheme", "?"), []).append(
                float(record["latency"])
            )
    return {s: np.asarray(v) for s, v in groups.items()}


def metrics_snapshots(source) -> dict[str, dict[str, Any]]:
    """Per-scheme end-of-run metric snapshots from ``simulation_end`` events.

    Keys of each snapshot follow the documented
    :data:`repro.cluster.engine.lifecycle.METRIC_SNAPSHOT_KEYS` ordering;
    any extra fields a future schema adds trail behind in event order.
    When a trace holds several runs of one scheme, the last run wins.
    """
    from repro.cluster.engine.lifecycle import METRIC_SNAPSHOT_KEYS

    out: dict[str, dict[str, Any]] = {}
    for record in load_events(source):
        if record.get("event") != ev.SIMULATION_END:
            continue
        scheme = record.get("scheme", "?")
        snapshot: dict[str, Any] = {}
        for key in METRIC_SNAPSHOT_KEYS:
            if key in record:
                snapshot[key] = record[key]
        for key, value in record.items():
            if key not in snapshot and key not in ("event", "ts"):
                snapshot[key] = value
        out[scheme] = snapshot
    return dict(sorted(out.items()))


def span_tree(source) -> list[dict[str, Any]]:
    """Rebuild the span forest from ``span`` events.

    Returns the root nodes; every node is the original record plus a
    ``children`` list.  A node whose ``parent`` id never appears in the
    trace (e.g. the trace started mid-run) is promoted to a root.
    """
    return _forest(source, ev.SPAN, "parent", lambda span_id: span_id)


def _forest(source, event: str, parent_key: str, key) -> list[dict[str, Any]]:
    """The roots of the ``event`` records' forest: each node is a record
    with a ``span_id`` plus its ``children``, linked by ``parent_key``
    (ids compared as ``key(id)``); a node whose parent never appears is
    a root."""
    nodes: dict[Any, dict[str, Any]] = {}
    order: list[dict[str, Any]] = []
    for record in load_events(source):
        if record.get("event") == event and "span_id" in record:
            node = {**record, "children": []}
            nodes[key(record["span_id"])] = node
            order.append(node)
    roots: list[dict[str, Any]] = []
    for node in order:
        parent = node.get(parent_key)
        if parent is not None and key(parent) in nodes:
            nodes[key(parent)]["children"].append(node)
        else:
            roots.append(node)
    return roots


def trace_summary(source, n_servers: int | None = None) -> list[dict[str, Any]]:
    """One table row per scheme: requests, bytes, imbalance, latency tails."""
    from repro.cluster.metrics import imbalance_factor

    events = load_events(source)
    loads = per_server_loads(events, n_servers=n_servers)
    lats = latency_samples(events)
    reads = _reads_by_scheme(events)
    rows: list[dict[str, Any]] = []
    for scheme in sorted(loads):
        load = loads[scheme]
        row: dict[str, Any] = {
            "scheme": scheme,
            "requests": len(reads[scheme]),
            "bytes_served": float(load.sum()),
            "eta": imbalance_factor(load) if load.size else float("nan"),
            "stragglers": sum(
                1 for r in reads[scheme] if r.get("straggler")
            ),
            "misses": sum(1 for r in reads[scheme] if r.get("miss")),
        }
        sample = lats.get(scheme)
        if sample is not None and sample.size:
            row["mean_s"] = float(sample.mean())
            row["p95_s"] = float(np.percentile(sample, 95))
        rows.append(row)
    return rows
