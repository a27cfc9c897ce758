"""Observability layer: metrics, tracing, spans, replay, and run manifests.

Cooperating pieces (each documented in its module, schema tables in
``docs/observability.md``):

:mod:`repro.obs.metrics`
    Always-on process-wide registry of labelled counters, gauges, and
    streaming histograms.  ``reset_registry()`` between tests.
:mod:`repro.obs.tracing`
    Opt-in structured events and wall-clock spans over a sink — no-op
    (default), in-memory ring buffer, or JSONL file.  Instrumented hot
    paths check ``tracer.enabled`` once, so disabled tracing is free.
:mod:`repro.obs.spans`
    Hierarchical wall-clock spans (parent/child ids, context manager +
    decorator, in-memory collection) with a Chrome/Perfetto trace-event
    exporter.  Supersedes the removed flat profiling hooks.
:mod:`repro.obs.replay`
    Turn a JSONL trace back into per-server load vectors, load timelines,
    latency samples, metric snapshots, and span trees — what
    ``python -m repro stats`` prints.
:mod:`repro.obs.timeline`
    Sim-time windowed timelines and tail-latency attribution: per-server
    busy/queue/bytes series keyed to simulated seconds, plus a bounded
    reservoir of slowest-request exemplars with per-partition breakdowns.
    Disabled by default; every discipline records through the shared
    :class:`~repro.cluster.engine.lifecycle.RequestLifecycle`.
:mod:`repro.obs.popularity`
    Streaming popularity/skew observation: Count-Min + Space-Saving
    sketches fed from the request path, online Zipf-exponent and
    imbalance estimates, and windowed drift/hot-spot alerts.  Disabled
    by default; renders through ``repro top`` / ``repro watch``.
:mod:`repro.obs.runinfo`
    Schema-versioned run manifests (``results/<exp>.json``): provenance,
    structured rows, per-span wall times, final metrics snapshot, and
    any timeline, popularity, or SLO sections the run published.
:mod:`repro.obs.report`
    Aggregate manifests into markdown and diff two manifest sets for
    wall-time/metric regressions (``python -m repro report``).
:mod:`repro.obs.export`
    OpenMetrics/Prometheus text exposition of registries, manifest
    snapshots, and trace snapshots, plus per-window rate derivation
    (``SnapshotDeltaSource``) — the scrape surface.
:mod:`repro.obs.slo`
    Declarative service-level objectives with multi-window
    multi-burn-rate alerting; sections land in schema-v5 manifests and
    breach/recovery events in the trace stream.
:mod:`repro.obs.dash`
    Fold trace events or manifests into a renderable cluster health
    board (``python -m repro dash``).
:mod:`repro.obs.causal`
    Causal request tracing: contextvar-propagated trace contexts with
    W3C-traceparent serialization, per-request fork-join span trees,
    and critical-path analysis with a conservation invariant
    (``python -m repro critical``); sections land in schema-v6
    manifests.
:mod:`repro.obs.membership`
    The channel for cluster-membership sections: churn experiments
    publish each topology's epoch/event history and the sections land
    in schema-v7 manifests (and the dash membership panel).
:mod:`repro.obs.sections`
    The observer :class:`Channel` — ambient config stack, nested section
    sinks, section checks — and the ordered :data:`CHANNELS` registry
    every observer above publishes through.

:mod:`repro.obs.events` pins the event-name vocabulary.
"""

# First: the observer modules imported below build their channels from
# repro.obs.sections, which imports them back to assemble CHANNELS.
from repro.obs.sections import CHANNELS, Channel  # isort: skip
from repro.obs import events
from repro.obs.causal import (
    CAUSAL,
    CAUSAL_SCHEMA_VERSION,
    CausalCollector,
    CausalConfig,
    TraceContext,
    causal_chrome_events,
    causal_from_trace,
    causal_span,
    collect_causal,
    critical_chain_rows,
    critical_edge_rows,
    current_context,
    get_causal_config,
    publish_causal,
    span_forest,
    use_causal,
    use_context,
    write_causal_chrome_trace,
)
from repro.obs.dash import (
    DashBoard,
    dash_from_manifest,
    follow_lines,
    parse_json_lines,
    render_frame,
)
from repro.obs.export import (
    SnapshotDeltaSource,
    parse_openmetrics,
    render_openmetrics,
    render_snapshot_openmetrics,
    snapshots_to_openmetrics,
    timeline_rates,
)
from repro.obs.membership import (
    MEMBERSHIP,
    collect_membership,
    publish_membership,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    parse_snapshot_key,
    render_snapshot_key,
    reset_registry,
    set_registry,
)
from repro.obs.popularity import (
    POPULARITY,
    POPULARITY_SCHEMA_VERSION,
    CountMinSketch,
    PopularityConfig,
    PopularityMonitor,
    SpaceSavingTopK,
    collect_popularity,
    get_popularity_config,
    popularity_from_trace,
    publish_popularity,
    use_popularity,
    zipf_alpha_from_counts,
)
from repro.obs.replay import (
    KNOWN_EVENTS,
    event_counts,
    iter_trace,
    latency_samples,
    load_events,
    load_timeline,
    metrics_snapshots,
    per_server_loads,
    span_tree,
    trace_summary,
    unknown_events,
)
from repro.obs.runinfo import (
    MANIFEST_SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    build_manifest,
    config_hash,
    git_sha,
    load_manifest,
    load_manifest_dir,
    peak_rss_bytes,
    total_requests_from_metrics,
    validate_manifest,
    write_manifest,
)
from repro.obs.slo import (
    SLO,
    DEFAULT_OBJECTIVES,
    SLO_SCHEMA_VERSION,
    SLOConfig,
    SLObjective,
    SLOMonitor,
    collect_slo,
    default_slo_config,
    get_slo_config,
    parse_objective,
    parse_slo,
    publish_slo,
    slo_from_trace,
    use_slo,
)
from repro.obs.spans import (
    SpanCollector,
    SpanRecord,
    chrome_trace,
    collect_spans,
    current_span_id,
    span,
    span_wrap,
    write_chrome_trace,
)

# Legacy aliases for the removed repro.obs.profiling module's names.
profiled = span
profile = span_wrap
from repro.obs.timeline import (
    TIMELINES,
    TIMELINE_SCHEMA_VERSION,
    TimelineCollector,
    TimelineConfig,
    chrome_counter_events,
    collect_timelines,
    get_timeline_config,
    publish_timeline,
    sparkline,
    tail_attribution_rows,
    timeline_series_rows,
    use_timeline,
)
from repro.obs.tracing import (
    FileSink,
    HeadSamplingSink,
    NullSink,
    RingBufferSink,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "CAUSAL",
    "CAUSAL_SCHEMA_VERSION",
    "CHANNELS",
    "Channel",
    "CausalCollector",
    "CausalConfig",
    "CountMinSketch",
    "Counter",
    "DEFAULT_OBJECTIVES",
    "DashBoard",
    "TraceContext",
    "FileSink",
    "Gauge",
    "HeadSamplingSink",
    "Histogram",
    "KNOWN_EVENTS",
    "MANIFEST_SCHEMA_VERSION",
    "MEMBERSHIP",
    "MetricsRegistry",
    "NullSink",
    "POPULARITY",
    "POPULARITY_SCHEMA_VERSION",
    "PopularityConfig",
    "PopularityMonitor",
    "RingBufferSink",
    "SLO",
    "SLO_SCHEMA_VERSION",
    "SLOConfig",
    "SLObjective",
    "SLOMonitor",
    "SUPPORTED_SCHEMA_VERSIONS",
    "SnapshotDeltaSource",
    "SpaceSavingTopK",
    "SpanCollector",
    "SpanRecord",
    "TIMELINES",
    "TIMELINE_SCHEMA_VERSION",
    "TimelineCollector",
    "TimelineConfig",
    "Tracer",
    "build_manifest",
    "causal_chrome_events",
    "causal_from_trace",
    "causal_span",
    "chrome_counter_events",
    "chrome_trace",
    "collect_causal",
    "collect_membership",
    "collect_popularity",
    "collect_slo",
    "collect_spans",
    "collect_timelines",
    "config_hash",
    "critical_chain_rows",
    "critical_edge_rows",
    "current_context",
    "current_span_id",
    "dash_from_manifest",
    "default_slo_config",
    "event_counts",
    "events",
    "follow_lines",
    "get_causal_config",
    "get_popularity_config",
    "get_registry",
    "get_slo_config",
    "get_timeline_config",
    "get_tracer",
    "git_sha",
    "iter_trace",
    "latency_samples",
    "load_events",
    "load_manifest",
    "load_manifest_dir",
    "load_timeline",
    "metrics_snapshots",
    "parse_json_lines",
    "parse_objective",
    "parse_openmetrics",
    "parse_slo",
    "parse_snapshot_key",
    "peak_rss_bytes",
    "per_server_loads",
    "popularity_from_trace",
    "profile",
    "profiled",
    "publish_causal",
    "publish_membership",
    "publish_popularity",
    "publish_slo",
    "publish_timeline",
    "render_frame",
    "render_openmetrics",
    "render_snapshot_key",
    "render_snapshot_openmetrics",
    "reset_registry",
    "set_registry",
    "set_tracer",
    "slo_from_trace",
    "snapshots_to_openmetrics",
    "span",
    "span_forest",
    "span_tree",
    "span_wrap",
    "sparkline",
    "tail_attribution_rows",
    "timeline_rates",
    "timeline_series_rows",
    "total_requests_from_metrics",
    "trace_summary",
    "unknown_events",
    "use_causal",
    "use_context",
    "use_popularity",
    "use_slo",
    "use_timeline",
    "use_tracer",
    "zipf_alpha_from_counts",
    "validate_manifest",
    "write_manifest",
    "write_causal_chrome_trace",
    "write_chrome_trace",
]
