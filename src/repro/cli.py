"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands
-----------
``simulate``
    Run one scheme on a synthetic workload and print latency statistics.
``compare``
    Race SP-Cache against the baselines on one trace (a CLI version of
    ``examples/quickstart.py``).
``configure``
    Run the scale-factor search and show the resulting partition layout.
``trace``
    Run scheme(s) with structured tracing enabled and write the JSONL
    event stream (schema in ``docs/observability.md``).
``stats``
    Replay a JSONL trace into per-server load vectors, an optional load
    timeline, a per-scheme summary table, and the per-scheme end-of-run
    metric snapshots (``METRIC_SNAPSHOT_KEYS`` ordering).  Traced SLO
    breach/recovery events render as an alert table; ``--slo SPEC``
    re-evaluates the trace post hoc; ``--format openmetrics`` emits the
    snapshots as a Prometheus/OpenMetrics text exposition.
``dash``
    Render the cluster health board — per-server load bars, latency
    percentiles, hot keys, SLO budgets, and active alerts — from a run
    manifest, a JSONL trace (``--follow`` tails a live one), or JSONL
    on stdin.  ``--plain`` suppresses terminal clear codes for CI.
``timeline``
    Render a manifest's sim-time timeline sections: each one's sparkline
    table (bytes/window, busiest-server busy fraction, queue depth,
    windowed p99 latency), then its tail-latency attribution — the
    slowest requests' mean split into queueing/straggling/transfer/join
    — and the ``--top N`` slowest-request exemplars with their trace ids.
``critical``
    Render causal critical paths: per-edge (queue/service/transfer/
    join) aggregates from a run manifest's ``causal`` sections, or
    those plus the slowest requests rebuilt from a JSONL trace's
    ``cspan`` span trees.  ``--check`` gates on the conservation
    invariant (and full DAG reconstruction for traces); ``--chrome``
    exports span trees with parent->child flow arrows.
``experiments``
    Regenerate evaluation tables and ``results/<exp>.json`` run
    manifests (thin wrapper over ``repro.experiments.run_all``; also
    forwards ``--trace`` / ``--chrome-trace``).  The experiment set is
    the declarative registry (``repro.experiments.registry``):
    ``--list`` prints it, ``--only`` accepts comma-separated names and
    glob patterns (``--only 'fig1*'``), and ``--jobs N`` fans the pass
    out over a process pool (parallel manifests diff clean against a
    serial pass modulo wall-clock spans).
``report``
    Aggregate run manifests into a markdown summary; ``--diff BASE``
    compares against a baseline manifest set and exits non-zero on
    wall-time or metric regressions (the CI gate).  ``--format
    openmetrics`` renders every manifest's metrics snapshot as one
    exposition with per-sample ``experiment`` labels.

``simulate`` and ``compare`` accept ``--seed`` (reproducible runs),
``--json`` (machine-parseable output), ``--trace PATH`` (record the
run's event stream while still printing the usual table), and
``--discipline SPEC`` (a server discipline from the engine registry —
``fifo``, ``ps``, or e.g. ``limited(4)``; see ``docs/engine.md``).
Tracing commands (``simulate --trace``, ``compare --trace``, ``trace``)
also take ``--sample N`` to head-sample the high-volume per-request
events: 1-in-N ``read``/``read_done`` pairs are kept, always both
halves of a pair together.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

import numpy as np

from repro.analysis.tables import format_table
from repro.cluster import (
    SimulationConfig,
    StragglerInjector,
    available_disciplines,
    imbalance_factor,
    resolve_discipline,
    simulate_reads,
)
from repro.common import MB, ClusterSpec, Gbps
from repro.obs import events as ev
from repro.core import optimal_scale_factor, partition_counts
from repro.cluster.network import GoodputModel
from repro.obs import (
    CAUSAL,
    CHANNELS,
    POPULARITY,
    TIMELINES,
    CausalConfig,
    DashBoard,
    FileSink,
    HeadSamplingSink,
    Tracer,
    causal_from_trace,
    critical_edge_rows,
    dash_from_manifest,
    event_counts,
    follow_lines,
    load_events,
    load_manifest_dir,
    load_timeline,
    metrics_snapshots,
    parse_json_lines,
    parse_slo,
    parse_snapshot_key,
    per_server_loads,
    popularity_from_trace,
    render_frame,
    render_snapshot_key,
    render_snapshot_openmetrics,
    slo_from_trace,
    snapshots_to_openmetrics,
    sparkline,
    tail_attribution_rows,
    tail_exemplar_rows,
    timeline_series_rows,
    trace_summary,
    unknown_events,
    use_tracer,
    validate_manifest,
    write_causal_chrome_trace,
)
from repro.obs.report import (
    METRIC_TOLERANCE,
    MIN_WALL_S,
    WALL_TOLERANCE,
    SchemaMismatchError,
    diff_manifests,
    render_diff,
    render_report,
)
from repro.policies import (
    ECCachePolicy,
    FixedChunkingPolicy,
    SelectiveReplicationPolicy,
    SimplePartitionPolicy,
    SingleCopyPolicy,
    SPCachePolicy,
)
from repro.workloads import paper_fileset, poisson_trace

__all__ = ["main"]

def _ec_policy(pop, cl, seed):
    """(10, 14) as in the paper, shrunk proportionally on tiny clusters."""
    n = min(14, cl.n_servers)
    k = max(n - 4, 1)
    return ECCachePolicy(pop, cl, k=k, n=n, seed=seed)


_SCHEMES = {
    "sp": lambda pop, cl, seed: SPCachePolicy(pop, cl, seed=seed),
    "ec": _ec_policy,
    "replication": lambda pop, cl, seed: SelectiveReplicationPolicy(
        pop, cl, seed=seed
    ),
    "simple": lambda pop, cl, seed: SimplePartitionPolicy(pop, cl, seed=seed),
    "chunking": lambda pop, cl, seed: FixedChunkingPolicy(
        pop, cl, chunk_size=8 * MB, seed=seed
    ),
    "single": lambda pop, cl, seed: SingleCopyPolicy(pop, cl, seed=seed),
}

_STRAGGLERS = {
    "none": StragglerInjector.none,
    "natural": StragglerInjector.natural,
    "injected": StragglerInjector.injected,
    "intensive": StragglerInjector.intensive,
}


def _discipline_spec(value: str) -> str:
    """argparse type: validate against the discipline registry early."""
    try:
        resolve_discipline(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _sample_every(value: str) -> int:
    """argparse type for ``--sample``: a positive integer."""
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--sample needs an integer, got {value!r}"
        ) from None
    if n < 1:
        raise argparse.ArgumentTypeError("--sample must be >= 1")
    return n


def _add_sample_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sample",
        type=_sample_every,
        default=1,
        metavar="N",
        help=(
            "head-sample the trace: keep 1-in-N read/read_done pairs "
            "(both halves of a sampled pair always survive; default 1 = all)"
        ),
    )


def _add_causal_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--causal",
        action="store_true",
        help=(
            "collect causal spans and critical-path edges (with --trace "
            "or `trace`, request span trees are written as cspan events)"
        ),
    )


def _add_discipline_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--discipline",
        type=_discipline_spec,
        default="ps",
        metavar="SPEC",
        help=(
            "server discipline from the engine registry: "
            f"{', '.join(available_disciplines())} "
            "(parameterised specs like 'limited(4)' work too)"
        ),
    )


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--files", type=int, default=300)
    parser.add_argument("--size-mb", type=float, default=100.0)
    parser.add_argument("--zipf", type=float, default=1.05)
    parser.add_argument("--rate", type=float, default=10.0)
    parser.add_argument("--servers", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)


def _workload(args):
    cluster = ClusterSpec(n_servers=args.servers, bandwidth=Gbps)
    pop = paper_fileset(
        args.files,
        size_mb=args.size_mb,
        zipf_exponent=args.zipf,
        total_rate=args.rate,
    )
    return pop, cluster


def _simulate_one(pop, cluster, scheme, args):
    policy = _SCHEMES[scheme](pop, cluster, args.seed)
    trace = poisson_trace(pop, n_requests=args.requests, seed=args.seed + 1)
    config = SimulationConfig(
        discipline=getattr(args, "discipline", "ps"),
        jitter="deterministic",
        stragglers=_STRAGGLERS[args.stragglers](),
        seed=args.seed + 2,
        observers=(
            (CausalConfig(),) if getattr(args, "causal", False) else ()
        ),
    )
    result = simulate_reads(trace, policy, cluster, config)
    summary = result.summary()
    return policy, result, summary


def _trace_sink(path: str, sample: int):
    """A JSONL file sink, head-sampled 1-in-``sample`` when ``sample > 1``."""
    sink = FileSink(path)
    return HeadSamplingSink(sink, sample) if sample > 1 else sink


@contextmanager
def _maybe_trace(path: str | None, sample: int = 1):
    """Install a JSONL file tracer for the block when ``path`` is given.

    ``sample > 1`` records only every ``sample``-th request's
    ``read``/``read_done`` pair (both halves together); all other events
    pass through untouched.
    """
    if not path:
        yield None
        return
    sink = _trace_sink(path, sample)
    try:
        with use_tracer(Tracer(sink)):
            yield sink
    finally:
        sink.close()


def _print_rows(rows, args, title: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(rows, indent=2))
    else:
        print(format_table(rows, title=title))


def _cmd_simulate(args) -> int:
    pop, cluster = _workload(args)
    with _maybe_trace(args.trace, args.sample) as sink:
        policy, result, summary = _simulate_one(pop, cluster, args.scheme, args)
    if sink is not None:
        print(
            f"trace: {sink.n_records} events -> {sink.path}", file=sys.stderr
        )
    if args.json:
        record = {
            "scheme": policy.name,
            "seed": args.seed,
            "requests": result.n_requests,
            "mean_s": summary.mean,
            "p50_s": summary.p50,
            "p95_s": summary.p95,
            "p99_s": summary.p99,
            "cv": summary.cv,
            "eta": imbalance_factor(result.server_bytes),
            "mem_overhead_pct": policy.memory_overhead() * 100,
            "metrics": result.metrics,
        }
        if "causal" in result.sections:
            record["causal"] = result.sections["causal"]
        print(json.dumps(record, indent=2))
        return 0
    rows = [
        {"metric": "scheme", "value": policy.name},
        {"metric": "mean latency (s)", "value": summary.mean},
        {"metric": "p95 latency (s)", "value": summary.p95},
        {"metric": "p99 latency (s)", "value": summary.p99},
        {"metric": "CV", "value": summary.cv},
        {"metric": "imbalance eta", "value": imbalance_factor(result.server_bytes)},
        {"metric": "memory overhead %", "value": policy.memory_overhead() * 100},
    ]
    print(format_table(rows, title=f"simulate: {args.scheme}"))
    causal = result.sections.get("causal")
    if causal is not None:
        conservation = causal.get("conservation") or {}
        print()
        print(
            format_table(
                critical_edge_rows(causal),
                title=(
                    "critical-path edges (conservation "
                    f"{'ok' if conservation.get('ok') else 'VIOLATED'}, "
                    f"max_rel_err {conservation.get('max_rel_err', 0):.2e})"
                ),
            )
        )
    return 0


def _cmd_compare(args) -> int:
    pop, cluster = _workload(args)
    schemes = [s.strip() for s in args.schemes.split(",")]
    for scheme in schemes:
        if scheme not in _SCHEMES:
            print(f"unknown scheme {scheme!r}", file=sys.stderr)
            return 2
    rows = []
    with _maybe_trace(args.trace, args.sample) as sink:
        for scheme in schemes:
            policy, result, summary = _simulate_one(pop, cluster, scheme, args)
            row = {
                "scheme": policy.name,
                "mean_s": summary.mean,
                "p95_s": summary.p95,
                "eta": imbalance_factor(result.server_bytes),
                "mem_overhead_pct": policy.memory_overhead() * 100,
            }
            causal = result.sections.get("causal")
            if causal is not None:
                conservation = causal.get("conservation") or {}
                row["crit_ok"] = "yes" if conservation.get("ok") else "NO"
            rows.append(row)
    if sink is not None:
        print(
            f"trace: {sink.n_records} events -> {sink.path}", file=sys.stderr
        )
    _print_rows(rows, args, title=f"compare @ rate {args.rate}")
    return 0


def _cmd_configure(args) -> int:
    pop, cluster = _workload(args)
    search = optimal_scale_factor(
        pop,
        cluster,
        goodput=GoodputModel(),
        client_cap=True,
        service_distribution="deterministic",
        mode=args.mode,
        seed=args.seed,
    )
    ks = partition_counts(pop, search.alpha, n_servers=cluster.n_servers)
    rows = [
        {"metric": "alpha (MB-load units)", "value": search.alpha * MB},
        {"metric": "latency bound (s)", "value": search.bound},
        {"metric": "search iterations", "value": search.n_iterations},
        {"metric": "k (hottest file)", "value": int(ks.max())},
        {"metric": "k (median file)", "value": int(np.median(ks))},
        {"metric": "files split", "value": f"{(ks > 1).mean():.0%}"},
    ]
    print(format_table(rows, title="Algorithm 1 configuration"))
    return 0


def _cmd_trace(args) -> int:
    """Run scheme(s) with a JSONL file sink installed, then summarize."""
    pop, cluster = _workload(args)
    schemes = [s.strip() for s in args.schemes.split(",")]
    for scheme in schemes:
        if scheme not in _SCHEMES:
            print(f"unknown scheme {scheme!r}", file=sys.stderr)
            return 2
    sink = _trace_sink(args.out, args.sample)
    try:
        with use_tracer(Tracer(sink)):
            for scheme in schemes:
                _simulate_one(pop, cluster, scheme, args)
    finally:
        sink.close()
    rows = trace_summary(args.out)
    print(
        format_table(
            rows, title=f"traced {sink.n_records} events -> {args.out}"
        )
    )
    return 0


def _cmd_stats(args) -> int:
    """Replay a JSONL trace into load vectors and a summary table."""
    if args.timeline < 0:
        print("--timeline must be a positive bucket count", file=sys.stderr)
        return 2
    try:
        events = load_events(args.tracefile)
    except FileNotFoundError:
        print(f"no such trace file: {args.tracefile}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(
            f"{args.tracefile} is not a JSONL trace ({exc.msg})",
            file=sys.stderr,
        )
        return 2
    if args.format == "openmetrics":
        snapshots = metrics_snapshots(events)
        if not snapshots:
            print("no metric snapshots in trace", file=sys.stderr)
            return 1
        print(snapshots_to_openmetrics(snapshots), end="")
        return 0

    summary_rows = trace_summary(events)
    if not summary_rows:
        print("no read events in trace", file=sys.stderr)
        return 1

    payload = {"summary": summary_rows}
    if not args.json:
        _print_rows(summary_rows, args, title=f"stats: {args.tracefile}")

    if args.per_server:
        loads = per_server_loads(events)
        server_rows = []
        for scheme in sorted(loads):
            for sid, served in enumerate(loads[scheme]):
                server_rows.append(
                    {"scheme": scheme, "server": sid, "bytes": float(served)}
                )
        payload["per_server"] = server_rows
        if not args.json:
            print()
            _print_rows(server_rows, args, title="per-server load")

    if args.timeline:
        timeline_rows = []
        for scheme, (edges, loads) in sorted(
            load_timeline(events, n_buckets=args.timeline).items()
        ):
            running = np.cumsum(loads, axis=0)
            for b in range(loads.shape[0]):
                bucket_loads = loads[b]
                timeline_rows.append(
                    {
                        "scheme": scheme,
                        "t_start": float(edges[b]),
                        "t_end": float(edges[b + 1]),
                        "bytes": float(bucket_loads.sum()),
                        "busiest_server": int(np.argmax(bucket_loads)),
                        "eta_so_far": imbalance_factor(running[b]),
                    }
                )
        payload["timeline"] = timeline_rows
        if not args.json:
            print()
            _print_rows(timeline_rows, args, title="load timeline")

    snapshots = metrics_snapshots(events)
    if snapshots:
        # One row per scheme, columns in the documented
        # METRIC_SNAPSHOT_KEYS order (the keys arrive pre-ordered).
        payload["metrics"] = snapshots
        if not args.json:
            print()
            _print_rows(
                list(snapshots.values()), args, title="metrics snapshot"
            )

    # SLO breach/recovery events recorded by the run itself (a traced
    # run with SLO evaluation enabled emits them through its tracer).
    slo_event_rows = [
        {
            "event": r["event"],
            "scheme": r.get("scheme", "?"),
            "objective": r.get("objective", "?"),
            "severity": r.get("severity", "?"),
            "t": r.get("ts", "-"),
            "burn": r.get("burn", "-"),
        }
        for r in events
        if r.get("event") in (ev.SLO_BREACH, ev.SLO_RECOVERED)
    ]
    if slo_event_rows:
        payload["slo_events"] = slo_event_rows
        if not args.json:
            print()
            _print_rows(slo_event_rows, args, title="SLO alerts (traced)")

    if args.slo is not None:
        # Post-hoc burn-rate evaluation of the trace's read stream
        # against the given objectives (see `repro.obs.slo.parse_slo`).
        try:
            slo_config = parse_slo(args.slo)
        except ValueError as exc:
            print(f"bad --slo spec: {exc}", file=sys.stderr)
            return 2
        slo_rows = [
            {
                "scheme": section["scheme"],
                "objective": obj["name"],
                "met": "yes" if obj["met"] else "NO",
                "bad_frac": obj["bad_fraction"],
                "budget": obj["budget"],
                "budget_left": obj["budget_remaining"],
                "breaches": obj["breaches"],
            }
            for section in slo_from_trace(events, slo_config)
            for obj in section["objectives"]
        ]
        payload["slo"] = slo_rows
        if not args.json:
            print()
            _print_rows(
                slo_rows, args, title=f"SLO evaluation: {args.slo}"
            )

    # Lineage recoveries traced by the store layer: one RECOVERY record
    # per recomputed file, with the recompute wall time and byte count.
    recovery_events = [r for r in events if r.get("event") == ev.RECOVERY]
    if recovery_events:
        recoveries = {
            "count": len(recovery_events),
            "bytes": sum(int(r.get("bytes", 0)) for r in recovery_events),
            "wall_s": float(
                sum(float(r.get("wall_s", 0.0)) for r in recovery_events)
            ),
        }
        payload["recoveries"] = recoveries
        if not args.json:
            print()
            print(
                f"lineage recoveries: {recoveries['count']} file(s), "
                f"{recoveries['bytes']} bytes recomputed in "
                f"{recoveries['wall_s']:.3g}s"
            )

    # Every known event kind renders with its layer (simulator, store,
    # core, topology, popularity, slo, profiling for spans, causal);
    # unknown kinds — a newer build's, or the retired ``profile`` record
    # of an older one — are counted separately, never dropped silently.
    counts = event_counts(events)
    payload["events"] = counts
    unknown = unknown_events(events)
    payload["unknown_events"] = unknown
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print()
        _print_rows(
            [
                {
                    "layer": ev.EVENT_LAYER.get(k, "unknown"),
                    "event": k,
                    "count": v,
                }
                for k, v in sorted(
                    counts.items(),
                    key=lambda kv: (
                        ev.EVENT_LAYER.get(kv[0], "unknown"),
                        kv[0],
                    ),
                )
            ],
            args,
            title="event counts",
        )
        if unknown:
            total = sum(unknown.values())
            names = ", ".join(unknown)
            print(
                f"skipped {total} record(s) with unknown event "
                f"name(s): {names}",
                file=sys.stderr,
            )
    return 0


def _load_sections(path: str, channel, from_trace=None):
    """One observer channel's sections from a file, as ``(sections, traced)``.

    Accepts a run manifest (its ``channel.key`` list), a bare JSON list of
    sections, or one section object.  Anything else — a JSONL trace, or a
    single trace-event line — is handed to ``from_trace(path)`` when given
    (``traced`` is then ``True``).  ``channel=None`` asks for the whole
    run manifest instead.  Every section list read from the file must
    pass :meth:`~repro.obs.sections.Channel.check_list`; one that does
    not is an error naming the file and the key.  Failures go to stderr
    and return ``None``.
    """

    def fail(message: str) -> None:
        print(message, file=sys.stderr)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return fail(f"no such file: {path}")
    except json.JSONDecodeError as exc:
        if from_trace is None:
            return fail(f"{path} is not JSON ({exc.msg})")
        doc = None  # multi-line JSONL trace — replayed below
    sections = None
    checks = []  # (channel, section list, where) read from the file
    if isinstance(doc, dict) and "event" not in doc:
        if channel is None:
            sections = doc
            checks = [
                (ch, doc[ch.key], f"{path}: {ch.key}")
                for ch in CHANNELS
                if ch.key in doc
            ]
        elif channel.key in doc:
            sections = doc[channel.key]
            checks = [(channel, sections, f"{path}: {channel.key}")]
        elif channel.marker in doc:
            sections = [doc]
            checks = [(channel, sections, path)]
    elif isinstance(doc, list) and channel is not None:
        sections = doc
        checks = [(channel, sections, path)]
    try:
        for ch, listed, where in checks:
            ch.check_list(listed, where)
    except ValueError as exc:
        return fail(str(exc))
    traced = sections is None
    if traced:
        if from_trace is None:
            return fail(
                f"{path} holds neither a run manifest nor "
                f"{channel.name} sections"
            )
        try:
            sections = from_trace(path)
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            what = f", {channel.name} sections," if channel else ""
            return fail(
                f"{path} holds neither a run manifest{what} "
                "nor a readable JSONL trace"
            )
    if channel is not None and not sections:
        hint = " (a trace without its events?)"
        return fail(
            f"no {channel.name} sections in {path}"
            + (hint if from_trace else "")
        )
    return sections, traced


def _section_title(section: dict, i: int) -> str:
    return (
        f"{section['scheme']} [{section.get('engine', '?')}] #{i}: "
        f"{section.get('n_windows', 0)} x {section.get('window_s', 0):.3g}s "
        f"windows, {section.get('n_requests', 0)} requests"
    )


def _cmd_timeline(args) -> int:
    """Render each timeline section: its sim-time series, then its tail
    attribution and the ``--top`` slowest-request exemplars."""
    loaded = _load_sections(args.manifest, TIMELINES)
    if loaded is None:
        return 2
    sections, _ = loaded
    if args.json:
        payload = [
            {
                "scheme": s["scheme"],
                "engine": s.get("engine"),
                "window_s": s.get("window_s"),
                "n_windows": s.get("n_windows"),
                "n_requests": s.get("n_requests"),
                "clipped_partitions": s.get("clipped_partitions"),
                "clipped_requests": s.get("clipped_requests"),
                "series": timeline_series_rows(s),
                "tail": {
                    "attribution": s["tail"]["attribution"],
                    "warmup_skipped": s["tail"].get("warmup_skipped", 0),
                    "exemplars": s["tail"]["exemplars"][: args.top],
                },
            }
            for s in sections
        ]
        print(json.dumps(payload, indent=2))
        return 0
    for i, section in enumerate(sections):
        title = _section_title(section, i)
        rows = timeline_series_rows(section)
        if not rows:
            print(f"{title}: no windows")
            continue
        print(format_table(rows, title=title))
        print()
        tail = section["tail"]
        attribution = tail["attribution"]
        print(
            format_table(
                tail_attribution_rows(section),
                title=(
                    f"{title} — mean of slowest {tail.get('k', 0)}: "
                    f"{attribution['mean_tail_latency_s']:.4g}s, "
                    f"p99 {attribution['p99_s']:.4g}s"
                ),
            )
        )
        exemplar_rows = tail_exemplar_rows(tail["exemplars"], args.top)
        if exemplar_rows:
            print()
            print(
                format_table(
                    exemplar_rows,
                    title=f"slowest {len(exemplar_rows)} requests",
                )
            )
        print()
    return 0


def _causal_title(section: dict, i: int) -> str:
    conservation = section.get("conservation") or {}
    title = (
        f"{section.get('scheme', '?')} [{section.get('engine', '?')}] #{i}: "
        f"{section.get('n_requests', 0)} requests, conservation "
        f"{'ok' if conservation.get('ok') else 'VIOLATED'} "
        f"(max_rel_err {conservation.get('max_rel_err', 0):.2e})"
    )
    if "reconstructed" in section:
        title += (
            f", {section['reconstructed']} DAG(s) rebuilt, "
            f"{section.get('dropped', 0)} dropped"
        )
    return title


def _causal_check(sections: list[dict], from_trace: bool) -> int:
    """Exit status for ``critical --check``: 0 iff every section holds.

    A section passes when its conservation invariant verified clean and
    — for trace-rebuilt sections — every request's span tree was
    complete (``reconstructed == n_requests`` and nothing dropped).
    """
    failures = []
    for i, section in enumerate(sections):
        conservation = section.get("conservation") or {}
        if not conservation.get("ok"):
            failures.append(
                f"section {i} ({section.get('scheme', '?')}): conservation "
                f"violated (max_rel_err {conservation.get('max_rel_err')})"
            )
        if from_trace:
            n = section.get("n_requests", 0)
            rebuilt = section.get("reconstructed", 0)
            dropped = section.get("dropped", 0)
            if rebuilt != n or dropped:
                failures.append(
                    f"section {i} ({section.get('scheme', '?')}): "
                    f"{rebuilt}/{n} DAGs reconstructed, {dropped} dropped"
                )
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"check ok: {len(sections)} section(s), conservation clean"
            + (", all span trees complete" if from_trace else "")
        )
    return 1 if failures else 0


def _cmd_critical(args) -> int:
    """Render per-request critical paths and causal edge aggregates."""
    loaded = _load_sections(args.source, CAUSAL, causal_from_trace)
    if loaded is None:
        return 2
    sections, from_trace = loaded
    if args.chrome:
        if not from_trace:
            print(
                "--chrome needs a JSONL trace with cspan events "
                "(manifest sections carry no span trees)",
                file=sys.stderr,
            )
            return 2
        n, dropped = write_causal_chrome_trace(args.source, args.chrome)
        print(
            f"chrome trace: {n} span events -> {args.chrome}, "
            f"{dropped} malformed tree(s) dropped"
        )
    if args.check:
        return _causal_check(sections, from_trace)
    if args.json:
        print(json.dumps(sections, indent=2, default=str))
        return 0
    for i, section in enumerate(sections):
        print(
            format_table(
                critical_edge_rows(section), title=_causal_title(section, i)
            )
        )
        exemplar_rows = tail_exemplar_rows(
            section.get("exemplars") or [], args.top
        )
        if exemplar_rows:
            print()
            print(
                format_table(
                    exemplar_rows,
                    title=f"slowest {len(exemplar_rows)} critical paths",
                )
            )
        print()
    return 0


def _render_popularity(section: dict, i: int, k: int) -> None:
    """Print one section: header, top-K table, drift spark, alerts."""
    alpha = section.get("alpha_est")
    imbalance = section.get("imbalance") or {}
    cv = imbalance.get("ewma_cv")
    max_mean = imbalance.get("ewma_max_mean")
    alerts = section.get("alerts") or []
    title = (
        f"{section['scheme']} [{section.get('engine', '?')}] #{i}: "
        f"{section.get('requests', 0)} requests, "
        f"{section.get('n_windows', 0)} windows"
    )
    if alpha is not None:
        title += f", alpha~{alpha:.3f}"
    top_rows = [
        {
            "rank": rank + 1,
            "file": entry["file_id"],
            "est_count": entry["count"],
            "err_bound": entry["error"],
            "share_pct": 100.0 * entry["share"],
        }
        for rank, entry in enumerate(section.get("top", [])[:k])
    ]
    if top_rows:
        print(format_table(top_rows, title=title))
    else:
        print(f"{title}: no observations")
        return
    lines = []
    if cv is not None:
        lines.append(
            f"imbalance (EWMA): cv {cv:.3f}, max/mean {max_mean:.3f}"
        )
    drift = [
        w["l1_drift"]
        for w in section.get("windows", [])
        if w.get("l1_drift") is not None
    ]
    if drift:
        lines.append(
            f"drift (weighted L1 per window): {sparkline(drift)} "
            f"max {max(drift):.3f}"
        )
    n_drift = sum(1 for a in alerts if a.get("kind") == "drift")
    n_hot = sum(1 for a in alerts if a.get("kind") == "hotspot")
    lines.append(f"alerts: {n_drift} drift, {n_hot} hotspot")
    for line in lines:
        print(line)
    alert_rows = [
        {
            "kind": a.get("kind", "?"),
            "window": a.get("window", "-"),
            "t_start": a.get("t_start", "-"),
            "detail": (
                f"file {a['file_id']} share {a['share']:.2f}"
                if a.get("kind") == "hotspot"
                else f"l1 {a.get('l1', 0):.2f}"
                + (
                    f" churn {a['rank_churn']:.2f}"
                    if a.get("rank_churn") is not None
                    else ""
                )
            ),
            "threshold": a.get("threshold", "-"),
        }
        for a in alerts[-8:]
    ]
    if alert_rows:
        print()
        print(format_table(alert_rows, title="active alerts (last 8)"))


def _cmd_top(args) -> int:
    """Render top-K hot files, skew, imbalance, and alerts."""
    loaded = _load_sections(args.source, POPULARITY, popularity_from_trace)
    if loaded is None:
        return 2
    sections, _ = loaded
    if args.json:
        print(json.dumps(sections, indent=2, default=str))
        return 0
    for i, section in enumerate(sections):
        _render_popularity(section, i, args.k)
        print()
    return 0


def _board_from_trace(path: str) -> DashBoard:
    board = DashBoard()
    board.feed_many(load_events(path))
    return board


def _dash_board_from_file(path: str) -> "DashBoard | None":
    """A board from a run-manifest JSON file or a JSONL event trace.

    A file that parses as one JSON object with manifest-shaped keys has
    its section lists checked, must be a current-schema manifest, and
    goes through :func:`dash_from_manifest`; anything else is replayed
    as a JSONL trace.  Reports failure to stderr and returns ``None``.
    """
    loaded = _load_sections(path, None, _board_from_trace)
    if loaded is None:
        return None
    found, traced = loaded
    try:
        return found if traced else dash_from_manifest(validate_manifest(found))
    except ValueError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return None


def _print_frame(board, args) -> None:
    if sys.stdout.isatty() and not args.plain:
        print("\x1b[2J\x1b[H", end="")
    print(render_frame(board, k=args.k), end="")


def _cmd_dash(args) -> int:
    """Render the cluster health board from a manifest, trace, or stdin."""
    import time as _time

    if args.source == "-":
        board = DashBoard()
        board.feed_many(parse_json_lines(sys.stdin))
        _print_frame(board, args)
        return 0

    if not args.follow:
        board = _dash_board_from_file(args.source)
        if board is None:
            return 2
        _print_frame(board, args)
        return 0

    # --follow: tail the growing JSONL trace, re-rendering a frame at
    # most every --interval seconds as records arrive; stop after
    # --idle-limit seconds without growth (and render a final frame).
    try:
        lines = follow_lines(
            args.source,
            poll_s=min(args.interval, 0.5),
            idle_limit=args.idle_limit,
        )
        board = DashBoard()
        frames = 0
        last_render = float("-inf")
        for record in parse_json_lines(lines):
            board.feed(record)
            now = _time.monotonic()
            if now - last_render >= args.interval:
                _print_frame(board, args)
                last_render = now
                frames += 1
                if args.frames and frames >= args.frames:
                    return 0
    except FileNotFoundError:
        print(f"no such trace file: {args.source}", file=sys.stderr)
        return 2
    _print_frame(board, args)
    return 0


def _cmd_experiments(args) -> int:
    from repro.experiments.run_all import main as run_all_main

    forwarded = []
    if args.list:
        forwarded.append("--list")
    if args.only:
        forwarded += ["--only", args.only]
    forwarded += [
        "--scale", str(args.scale),
        "--out", args.out,
        "--jobs", str(args.jobs),
    ]
    if args.slo is not None:
        forwarded += ["--slo", args.slo]
    if args.trace:
        forwarded += ["--trace", args.trace]
    if args.chrome_trace:
        forwarded += ["--chrome-trace", args.chrome_trace]
    return run_all_main(forwarded)


def _load_manifests(
    path: str, diffing: bool = False
) -> tuple[dict, list[str]] | None:
    """Load a manifest directory, reporting failure to stderr."""
    import pathlib

    p = pathlib.Path(path)
    if not p.is_dir():
        print(f"no such manifest directory: {path}", file=sys.stderr)
        return None
    try:
        manifests, skipped = load_manifest_dir(p)
    except SchemaMismatchError as exc:
        redo = "both manifest sets" if diffing else "it"
        print(
            f"schema mismatch: {exc} — regenerate {redo} with the same build",
            file=sys.stderr,
        )
        return None
    for name in skipped:
        print(f"skipping {p / name}: not a run manifest", file=sys.stderr)
    return manifests, skipped


def _cmd_report(args) -> int:
    """Aggregate ``results/*.json`` manifests; diff against a baseline."""
    loaded = _load_manifests(args.results, diffing=args.diff is not None)
    if loaded is None:
        return 2
    manifests, _ = loaded
    if not manifests:
        print(f"no run manifests under {args.results}", file=sys.stderr)
        return 2

    if args.diff is None:
        if args.format == "openmetrics":
            # One exposition across all manifests: every sample gains an
            # `experiment` label so families merge without collisions.
            merged: dict = {}
            for name in sorted(manifests):
                snapshot = manifests[name].get("metrics") or {}
                for key, value in snapshot.items():
                    try:
                        metric, labels = parse_snapshot_key(key)
                    except ValueError:
                        continue
                    labels["experiment"] = name
                    merged[render_snapshot_key(metric, labels)] = value
            text = render_snapshot_openmetrics(merged)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
                print(
                    f"openmetrics: {len(manifests)} manifest(s) -> {args.out}"
                )
            else:
                print(text, end="")
            return 0
        if args.json:
            print(json.dumps(manifests, indent=2, default=str))
        else:
            text = render_report(manifests)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
                print(f"report: {len(manifests)} manifest(s) -> {args.out}")
            else:
                print(text, end="")
        return 0

    base_loaded = _load_manifests(args.diff, diffing=True)
    if base_loaded is None:
        return 2
    base, _ = base_loaded
    if not base:
        print(f"no baseline manifests under {args.diff}", file=sys.stderr)
        return 2
    try:
        regressions = diff_manifests(
            base,
            manifests,
            wall_tolerance=args.wall_tolerance,
            metric_tolerance=args.metric_tolerance,
            min_wall_s=args.min_wall_s,
        )
    except SchemaMismatchError as exc:
        print(f"schema mismatch: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(regressions, indent=2, default=str))
    else:
        text = render_diff(regressions, n_base=len(base), n_new=len(manifests))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"diff: {len(regressions)} regression(s) -> {args.out}")
        else:
            print(text, end="")
    return 1 if regressions else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one scheme on a workload")
    _add_workload_args(p_sim)
    p_sim.add_argument("--scheme", choices=sorted(_SCHEMES), default="sp")
    p_sim.add_argument("--requests", type=int, default=3000)
    p_sim.add_argument(
        "--stragglers", choices=sorted(_STRAGGLERS), default="natural"
    )
    _add_discipline_arg(p_sim)
    _add_causal_arg(p_sim)
    p_sim.add_argument(
        "--json", action="store_true", help="machine-parseable JSON output"
    )
    p_sim.add_argument(
        "--trace", default=None, metavar="PATH",
        help="also record a JSONL event trace to PATH",
    )
    _add_sample_arg(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_cmp = sub.add_parser("compare", help="race several schemes")
    _add_workload_args(p_cmp)
    p_cmp.add_argument("--schemes", default="sp,ec,replication")
    p_cmp.add_argument("--requests", type=int, default=3000)
    p_cmp.add_argument(
        "--stragglers", choices=sorted(_STRAGGLERS), default="natural"
    )
    _add_discipline_arg(p_cmp)
    _add_causal_arg(p_cmp)
    p_cmp.add_argument(
        "--json", action="store_true", help="machine-parseable JSON output"
    )
    p_cmp.add_argument(
        "--trace", default=None, metavar="PATH",
        help="also record a JSONL event trace to PATH",
    )
    _add_sample_arg(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_cfg = sub.add_parser("configure", help="run the scale-factor search")
    _add_workload_args(p_cfg)
    p_cfg.add_argument("--mode", choices=("paper", "sweep"), default="sweep")
    p_cfg.set_defaults(func=_cmd_configure)

    p_trc = sub.add_parser(
        "trace", help="run scheme(s) with tracing on, write a JSONL trace"
    )
    _add_workload_args(p_trc)
    p_trc.add_argument("--schemes", default="sp")
    p_trc.add_argument("--requests", type=int, default=3000)
    p_trc.add_argument(
        "--stragglers", choices=sorted(_STRAGGLERS), default="natural"
    )
    _add_discipline_arg(p_trc)
    _add_causal_arg(p_trc)
    p_trc.add_argument("--out", required=True, metavar="PATH")
    _add_sample_arg(p_trc)
    p_trc.set_defaults(func=_cmd_trace)

    p_sts = sub.add_parser(
        "stats", help="replay a JSONL trace into load vectors and tables"
    )
    p_sts.add_argument("tracefile", metavar="TRACE.jsonl")
    p_sts.add_argument(
        "--timeline", type=int, default=0, metavar="N",
        help="also print an N-bucket per-server load timeline",
    )
    p_sts.add_argument(
        "--per-server", action="store_true", dest="per_server",
        help="also print the reconstructed per-server byte loads",
    )
    p_sts.add_argument(
        "--json", action="store_true", help="machine-parseable JSON output"
    )
    p_sts.add_argument(
        "--format", choices=("table", "openmetrics"), default="table",
        help=(
            "'openmetrics' prints the trace's end-of-run metric "
            "snapshots as a Prometheus/OpenMetrics text exposition"
        ),
    )
    p_sts.add_argument(
        "--slo", default=None, metavar="SPEC",
        help=(
            "re-evaluate the trace against SLO objectives, e.g. "
            "'p99<0.05,imbalance<3' (see docs/observability.md)"
        ),
    )
    p_sts.set_defaults(func=_cmd_stats)

    p_tml = sub.add_parser(
        "timeline",
        help=(
            "render a manifest's sim-time timelines, tail attribution and "
            "slowest-request exemplars"
        ),
    )
    p_tml.add_argument(
        "manifest", metavar="MANIFEST",
        help="a results/<exp>.json manifest (or extracted timeline JSON)",
    )
    p_tml.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="show the N slowest exemplars per section (default %(default)s)",
    )
    p_tml.add_argument(
        "--json", action="store_true", help="machine-parseable JSON output"
    )
    p_tml.set_defaults(func=_cmd_timeline)

    p_crt = sub.add_parser(
        "critical",
        help="per-request critical paths and causal edge aggregates",
    )
    p_crt.add_argument(
        "source",
        help=(
            "run manifest JSON, causal section(s), or a JSONL trace with "
            "cspan events"
        ),
    )
    p_crt.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="show the N slowest critical paths per section (default 10)",
    )
    p_crt.add_argument(
        "--check", action="store_true",
        help=(
            "exit non-zero unless every section's conservation invariant "
            "holds (and, for traces, every span tree reconstructed)"
        ),
    )
    p_crt.add_argument(
        "--chrome", default=None, metavar="PATH",
        help=(
            "also export the trace's span trees as a Chrome/Perfetto "
            "trace with parent->child flow arrows (JSONL input only)"
        ),
    )
    p_crt.add_argument(
        "--json", action="store_true", help="emit raw sections as JSON"
    )
    p_crt.set_defaults(func=_cmd_critical)

    p_top = sub.add_parser(
        "top",
        help="hot files, estimated skew, imbalance, and alerts",
    )
    p_top.add_argument(
        "source",
        help="run manifest JSON, popularity section(s), or JSONL trace",
    )
    p_top.add_argument(
        "--k", type=int, default=10, help="hot files to show (default 10)"
    )
    p_top.add_argument(
        "--json", action="store_true", help="emit raw sections as JSON"
    )
    p_top.set_defaults(func=_cmd_top)

    p_dash = sub.add_parser(
        "dash",
        help="cluster health board: load bars, hot keys, SLO alerts",
    )
    p_dash.add_argument(
        "source",
        help=(
            "run manifest JSON, JSONL event trace, or '-' for JSONL "
            "records on stdin"
        ),
    )
    p_dash.add_argument(
        "--follow", action="store_true",
        help="tail a growing JSONL trace and re-render as records arrive",
    )
    p_dash.add_argument(
        "--interval", type=float, default=2.0, metavar="SEC",
        help="minimum seconds between frames with --follow (default 2)",
    )
    p_dash.add_argument(
        "--frames", type=int, default=0, metavar="N",
        help="with --follow, stop after N frames (default 0 = forever)",
    )
    p_dash.add_argument(
        "--idle-limit", type=float, default=None, dest="idle_limit",
        metavar="SEC",
        help=(
            "with --follow, stop once the trace stops growing for SEC "
            "seconds (default: follow forever)"
        ),
    )
    p_dash.add_argument(
        "--k", type=int, default=5, help="hot files per scheme (default 5)"
    )
    p_dash.add_argument(
        "--plain", action="store_true",
        help="never emit terminal clear codes (CI / non-TTY frame mode)",
    )
    p_dash.set_defaults(func=_cmd_dash)

    p_exp = sub.add_parser("experiments", help="regenerate evaluation tables")
    p_exp.add_argument(
        "--only", default=None, metavar="NAMES",
        help="comma-separated experiment names and/or glob patterns",
    )
    p_exp.add_argument(
        "--list", action="store_true",
        help="print the experiment registry as a table and exit",
    )
    p_exp.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run up to N experiments in parallel worker processes",
    )
    p_exp.add_argument("--scale", type=float, default=1.0)
    p_exp.add_argument(
        "--slo", default=None, metavar="SPEC",
        help=(
            "SLO objectives for every experiment, e.g. "
            "'p99<0.05,imbalance<3' (default: the loose built-in set)"
        ),
    )
    p_exp.add_argument("--out", default="results")
    p_exp.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a JSONL event trace of the whole pass to PATH",
    )
    p_exp.add_argument(
        "--chrome-trace", default=None, dest="chrome_trace", metavar="PATH",
        help="write a Chrome/Perfetto trace-event timeline to PATH",
    )
    p_exp.set_defaults(func=_cmd_experiments)

    p_rep = sub.add_parser(
        "report", help="aggregate run manifests; --diff flags regressions"
    )
    p_rep.add_argument(
        "results", nargs="?", default="results", metavar="DIR",
        help="directory of results/<exp>.json run manifests",
    )
    p_rep.add_argument(
        "--diff", default=None, metavar="BASE",
        help="baseline manifest directory; exit 1 if DIR regressed vs BASE",
    )
    p_rep.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the markdown to FILE instead of stdout",
    )
    p_rep.add_argument(
        "--json", action="store_true", help="machine-parseable JSON output"
    )
    p_rep.add_argument(
        "--format", choices=("markdown", "openmetrics"), default="markdown",
        help=(
            "'openmetrics' renders every manifest's metrics snapshot as "
            "one Prometheus/OpenMetrics exposition (samples labelled by "
            "experiment); ignored with --diff"
        ),
    )
    p_rep.add_argument(
        "--wall-tolerance", type=float, default=WALL_TOLERANCE,
        dest="wall_tolerance", metavar="FRAC",
        help="relative wall-time slack before flagging (default %(default)s)",
    )
    p_rep.add_argument(
        "--metric-tolerance", type=float, default=METRIC_TOLERANCE,
        dest="metric_tolerance", metavar="FRAC",
        help="relative metric slack before flagging (default %(default)s)",
    )
    p_rep.add_argument(
        "--min-wall-s", type=float, default=MIN_WALL_S,
        dest="min_wall_s", metavar="SEC",
        help="ignore wall regressions smaller than SEC (default %(default)s)",
    )
    p_rep.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
