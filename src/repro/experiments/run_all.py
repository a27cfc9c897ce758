"""Regenerate every table and figure: ``python -m repro.experiments.run_all``.

The set of experiments is *data*: every ``fig*`` module registers an
:class:`~repro.experiments.registry.ExperimentSpec` (runner, paper
expectations, scale/timing/timeline flags, sweep parameters) and this
driver, the ``repro experiments`` CLI, the manifests, and the
EXPERIMENTS.md registry table all read from that one registry — there is
no hand-maintained experiment list here.  ``--list`` prints the registry;
``--only`` takes comma-separated names and glob patterns
(``--only 'fig1*,theorem1'``).

Each experiment runs inside one shared telemetry wrapper
(:func:`run_experiment`): a root span covers the runner (control-plane
sections reached inside — the scale-factor search, repartition planning,
byte-store reads/writes — open child spans), a fresh metrics registry
isolates the run's counters, and the outcome lands three ways:

* the human-readable table on stdout and in ``results/<exp>.txt``;
* a schema-versioned run manifest in ``results/<exp>.json`` (git sha,
  seed, ``--scale``, config hash, the registered spec metadata,
  structured rows, per-span wall times, metrics snapshot — see
  :mod:`repro.obs.runinfo`), aggregatable and diffable with
  ``python -m repro report``;
* optionally a JSONL event trace (``--trace``) and a Chrome/Perfetto
  timeline of every span in the pass (``--chrome-trace``), loadable at
  https://ui.perfetto.dev.

Experiments whose spec sets ``timeline`` (fig12, fig13, fig16, fig19)
additionally run with sim-time timelines enabled
(:mod:`repro.obs.timeline`); the recorded sections land in their
manifests' ``timelines`` list — render with ``python -m repro timeline``
/ ``repro tail`` — and ``--chrome-trace`` gains per-scheme counter
tracks.

``--jobs N`` fans the pass out over a process pool: the per-experiment
metrics registry and span collector already isolate every run, so a
parallel pass produces the same manifests as a serial one modulo
wall-clock spans and workload-cache hit/miss splits (each worker warms a
private cache) — ``repro report --diff`` between the two passes is clean
by construction.  Session-wide tracing (``--trace`` /
``--chrome-trace``) spans processes poorly, so it requires ``--jobs 1``.

``--scale 0.25`` shrinks the simulated request counts for a quick pass.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import ExitStack

from repro.analysis.tables import format_table
from repro.obs.causal import CausalConfig
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.runinfo import build_manifest, write_manifest
from repro.obs.sections import CHANNELS
from repro.obs.slo import default_slo_config, parse_slo
from repro.obs.spans import (
    SpanCollector,
    collect_spans,
    span,
    write_chrome_trace,
)
from repro.obs.timeline import (
    TimelineConfig,
    chrome_counter_events,
    collect_timelines,
)
from repro.obs.tracing import FileSink, Tracer, use_tracer

from repro.experiments.config import DEFAULTS, defaults_dict
from repro.experiments.registry import (
    UnknownExperimentError,
    get_spec,
    registry_table_rows,
    resolve_names,
)

__all__ = ["main", "run_experiment"]


def run_experiment(
    name: str,
    scale: float = 1.0,
    batch_size: int | None = None,
    slo: str | None = None,
    **params,
) -> tuple[list[dict], dict]:
    """Run one registered experiment under the shared telemetry wrapper.

    Returns ``(rows, manifest)``.  The runner executes inside a root
    ``experiment`` span and against a private metrics registry, so the
    manifest's span forest and metrics snapshot describe exactly this
    run.  Teardown is exception-safe: the process-wide registry (and the
    span/timeline contexts, which unwind with the ``with`` blocks) is
    restored even when the runner raises.  Span *events* still flow to
    whatever tracer is installed, so a traced pass captures the full
    hierarchy in its JSONL stream too.  ``params`` override the spec's
    sweep parameters (``run_experiment("fig12", rate=22.0)``).
    ``batch_size`` installs an ambient vectorized batch size for
    batchable specs (see :meth:`ExperimentSpec.run`); the value used is
    recorded in the manifest's config.  ``slo`` is a compact objective
    spec (``"p99<0.02,miss<0.5"``, see :func:`repro.obs.slo.parse_slo`);
    ``None`` installs the loose :func:`~repro.obs.slo.default_slo_config`
    so every experiment's runs are judged (quietly, when healthy) and
    the resulting sections land in the manifest's ``slo`` list.
    """
    spec = get_spec(name)
    # Every channel's sections are collected: runs publish only what a
    # config opts into, so the sinks are free for every other experiment.
    # The SLO config opts every simulated run in; timeline experiments
    # also collect causal critical paths — the same per-partition records
    # feed both, and the sections are deterministic so ``report --diff``
    # stays clean; membership sections come only from churn experiments.
    configs = {
        "slo": parse_slo(slo) if slo is not None else default_slo_config()
    }
    if spec.timeline:
        configs.update(timelines=TimelineConfig(), causal=CausalConfig())
    sections: dict[str, list[dict]] = {ch.key: [] for ch in CHANNELS}
    collector = SpanCollector()
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        with collect_spans(collector), ExitStack() as observers:
            for ch in CHANNELS:
                observers.enter_context(ch.collect(sections[ch.key]))
                if ch.key in configs:
                    observers.enter_context(ch.use(configs[ch.key]))
            with span("experiment", experiment=spec.name):
                rows = spec.run(scale=scale, batch_size=batch_size, **params)
    finally:
        set_registry(previous)
    roots = [r for r in collector.roots() if r.name == "experiment"]
    wall_s = roots[0].wall_s if roots else 0.0
    config = {
        "experiment": spec.name,
        "scale": scale if spec.accepts_scale else None,
        "accepts_scale": spec.accepts_scale,
        "timing_rows": spec.timing_rows,
        "timelines": spec.timeline,
        "batch_size": batch_size if spec.batchable else None,
        "slo": slo,
        "params": {k: repr(v) for k, v in sorted(params.items())},
        "spec": spec.describe(),
        "defaults": defaults_dict(),
    }
    manifest = build_manifest(
        spec.name,
        rows,
        wall_s=wall_s,
        scale=scale if spec.accepts_scale else None,
        seed=DEFAULTS.seed_sim,
        config=config,
        spans=collector.records,
        metrics=registry.snapshot(),
        **sections,
    )
    return rows, manifest


def _write_result(
    name: str, rows: list[dict], manifest: dict, outdir: pathlib.Path
) -> None:
    text = format_table(
        rows, title=f"== {name} ({manifest['wall_s']:.1f}s) =="
    )
    print(text)
    print()
    (outdir / f"{name}.txt").write_text(text + "\n")
    write_manifest(manifest, outdir / f"{name}.json")


def _run_serial(
    names: list[str],
    scale: float,
    outdir: pathlib.Path,
    session_spans: SpanCollector,
    session_timelines: list[dict],
    batch_size: int | None = None,
    slo: str | None = None,
) -> None:
    # The outer timeline sink sees every section the per-experiment sinks
    # do (sinks nest), so ``--chrome-trace`` can add counter tracks for
    # the whole pass.
    with collect_spans(session_spans), collect_timelines(session_timelines):
        for name in names:
            rows, manifest = run_experiment(
                name, scale=scale, batch_size=batch_size, slo=slo
            )
            _write_result(name, rows, manifest, outdir)


def _pool_run(
    name: str,
    scale: float,
    batch_size: int | None = None,
    slo: str | None = None,
) -> tuple[str, list[dict], dict]:
    """Process-pool worker: one experiment, full telemetry wrapper."""
    from repro.experiments.registry import load_all

    load_all()  # spawn-start workers import this module fresh
    rows, manifest = run_experiment(
        name, scale=scale, batch_size=batch_size, slo=slo
    )
    return name, rows, manifest


def _run_parallel(
    names: list[str],
    scale: float,
    outdir: pathlib.Path,
    jobs: int,
    batch_size: int | None = None,
    slo: str | None = None,
) -> None:
    """Fan the pass out over a process pool; emit in registry order.

    Tables print and manifests land in the same deterministic order as a
    serial pass, whatever order the workers finish in.
    """
    results: dict[str, tuple[list[dict], dict]] = {}
    with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
        futures = {
            pool.submit(_pool_run, name, scale, batch_size, slo): name
            for name in names
        }
        for future in as_completed(futures):
            name, rows, manifest = future.result()
            results[name] = (rows, manifest)
            print(
                f"done: {name} ({manifest['wall_s']:.1f}s)", file=sys.stderr
            )
    for name in names:
        rows, manifest = results[name]
        _write_result(name, rows, manifest, outdir)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument(
        "--only", type=str, default=None, metavar="NAMES",
        help=(
            "comma-separated experiment names and/or glob patterns "
            "(e.g. 'fig12,fig13' or 'fig1*')"
        ),
    )
    parser.add_argument(
        "--list", action="store_true",
        help="print the experiment registry as a table and exit",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="run up to N experiments in parallel worker processes",
    )
    parser.add_argument(
        "--batch-size", type=int, default=None, metavar="B",
        help=(
            "vectorized planning batch size for batchable experiments "
            "(bit-exact vs scalar; unset runs the scalar engine)"
        ),
    )
    parser.add_argument(
        "--slo", type=str, default=None, metavar="SPEC",
        help=(
            "SLO objectives every experiment is judged against, e.g. "
            "'p99<0.02,miss<0.5,imbalance<3' (unset uses loose defaults "
            "that stay quiet on healthy runs)"
        ),
    )
    parser.add_argument("--out", type=str, default="results")
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a JSONL event trace of the whole pass to PATH",
    )
    parser.add_argument(
        "--chrome-trace", default=None, metavar="PATH",
        help="write every span as a Chrome/Perfetto trace-event timeline",
    )
    args = parser.parse_args(argv)

    if args.list:
        print(format_table(registry_table_rows(), title="experiment registry"))
        return 0
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    if args.jobs > 1 and (args.trace or args.chrome_trace):
        print(
            "--trace/--chrome-trace record a single-process session; "
            "use --jobs 1 with them",
            file=sys.stderr,
        )
        return 2

    try:
        names = resolve_names(args.only)
    except UnknownExperimentError as exc:
        print(exc, file=sys.stderr)
        return 2

    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    if args.batch_size is not None and args.batch_size < 1:
        print("--batch-size must be >= 1", file=sys.stderr)
        return 2

    if args.slo is not None:
        try:
            parse_slo(args.slo)  # fail fast before any experiment runs
        except ValueError as exc:
            print(f"--slo: {exc}", file=sys.stderr)
            return 2

    if args.jobs > 1:
        _run_parallel(
            names, args.scale, outdir, args.jobs,
            batch_size=args.batch_size, slo=args.slo,
        )
        return 0

    session_spans = SpanCollector()
    session_timelines: list[dict] = []
    if args.trace:
        sink = FileSink(args.trace)
        try:
            with use_tracer(Tracer(sink)):
                _run_serial(
                    names, args.scale, outdir, session_spans,
                    session_timelines, batch_size=args.batch_size,
                    slo=args.slo,
                )
        finally:
            sink.close()
        print(
            f"trace: {sink.n_records} events -> {sink.path}", file=sys.stderr
        )
    else:
        _run_serial(
            names, args.scale, outdir, session_spans, session_timelines,
            batch_size=args.batch_size, slo=args.slo,
        )

    if args.chrome_trace:
        n_spans = write_chrome_trace(
            session_spans,
            args.chrome_trace,
            process_name="repro.run_all",
            extra_events=chrome_counter_events(session_timelines),
        )
        print(
            f"chrome trace: {n_spans} spans -> {args.chrome_trace}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
