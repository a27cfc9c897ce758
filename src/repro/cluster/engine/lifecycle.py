"""The request lifecycle shared by every server discipline.

Whatever the service discipline, one simulated read goes through the same
stations: the policy plans a fork-join (:meth:`RequestLifecycle.plan`),
per-connection goodput shrinks effective bandwidth (memoized in
:meth:`RequestLifecycle.goodput_factor`), optional exponential jitter
perturbs service, straggler injection delays the *reported* completion
without holding the NIC (:meth:`RequestLifecycle.report_delays` — the
paper injects by sleeping the serving thread), a cluster-wide LRU decides
hit/miss under a cache budget (:meth:`RequestLifecycle.admit`), the join
fires after ``join_count`` completions and the latency folds in post-join
decode plus any miss penalty (:meth:`RequestLifecycle.request_latency`),
and the run ends with one metrics/tracing flush
(:meth:`RequestLifecycle.result`).

Disciplines (:mod:`repro.cluster.engine.registry`) own only the queueing:
*when* each partition read finishes.  Everything else lives here, once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.client import ReadOp
from repro.cluster.metrics import (
    LatencySummary,
    imbalance_factor,
    summarize_latencies,
)
from repro.cluster.network import GoodputModel
from repro.cluster.stragglers import StragglerInjector
from repro.cluster.topology import ClusterTopology, as_cluster_spec
from repro.common import ClusterSpec, make_rng
from repro.obs import events as ev
from repro.obs.causal import CausalCollector, CausalConfig
from repro.obs.metrics import get_registry
from repro.obs.popularity import PopularityConfig, PopularityMonitor
from repro.obs.sections import CHANNELS
from repro.obs.slo import SLOConfig, SLOMonitor
from repro.obs.timeline import TimelineCollector, TimelineConfig
from repro.obs.tracing import Tracer, get_tracer
from repro.store.lru import LRUCache
from repro.workloads.arrivals import ArrivalTrace
from repro.workloads.streams import WorkloadStream, is_stream

__all__ = [
    "METRIC_SNAPSHOT_KEYS",
    "RequestLifecycle",
    "SimulationConfig",
    "SimulationResult",
    "planner_name",
    "record_run_metrics",
]

#: Keys of the end-of-run snapshot stored on
#: :attr:`SimulationResult.metrics` and carried by the ``simulation_end``
#: trace event.  ``scheme`` (policy label) and ``engine`` (discipline
#: name) are strings; everything else is numeric: ``n_servers``,
#: ``requests``, ``hits``, ``misses``, ``bytes_served``,
#: ``imbalance_eta`` (the paper's Eq. 15), ``straggler_reads``.
METRIC_SNAPSHOT_KEYS: tuple[str, ...] = (
    "scheme",
    "engine",
    "n_servers",
    "requests",
    "hits",
    "misses",
    "bytes_served",
    "imbalance_eta",
    "straggler_reads",
)


def planner_name(planner: object) -> str:
    """Scheme label used on trace events and metric labels."""
    return str(getattr(planner, "name", type(planner).__name__))


def record_run_metrics(
    *,
    scheme: str,
    engine: str,
    server_bytes: np.ndarray,
    latencies: np.ndarray,
    hits: int,
    misses: int,
    straggler_reads: int,
    tracer: Tracer,
    end_ts: float,
) -> dict[str, float | int | str]:
    """End-of-run accounting shared by every discipline.

    Pushes run aggregates into the process-wide registry (labelled by
    ``scheme``/``engine``; per-server bytes additionally by
    ``server_id``), emits one ``simulation_end`` event when tracing, and
    returns the snapshot stored on :attr:`SimulationResult.metrics` —
    keys documented at :data:`METRIC_SNAPSHOT_KEYS`.
    """
    metrics: dict[str, float | int | str] = {
        "scheme": scheme,
        "engine": engine,
        "n_servers": int(server_bytes.size),
        "requests": int(latencies.size),
        "hits": int(hits),
        "misses": int(misses),
        "bytes_served": float(server_bytes.sum()),
        "imbalance_eta": imbalance_factor(server_bytes),
        "straggler_reads": int(straggler_reads),
    }
    reg = get_registry()
    lab = {"scheme": scheme, "engine": engine}
    reg.counter("sim.requests", **lab).inc(latencies.size)
    reg.counter("sim.hits", **lab).inc(hits)
    reg.counter("sim.misses", **lab).inc(misses)
    reg.counter("sim.bytes_served", **lab).inc(metrics["bytes_served"])
    reg.counter("sim.straggler_reads", **lab).inc(straggler_reads)
    reg.histogram("sim.latency_seconds", **lab).observe_many(latencies)
    for sid, served in enumerate(server_bytes):
        reg.counter(
            "sim.server_bytes", scheme=scheme, engine=engine, server_id=sid
        ).inc(float(served))
    if tracer.enabled:
        tracer.event(ev.SIMULATION_END, ts=end_ts, **metrics)
    return metrics


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of one simulation run.

    ``discipline`` selects the server model from the discipline registry
    (:mod:`repro.cluster.engine.registry`) — a registered name, a
    parameterised spec string, or a :class:`ServerDiscipline` instance:

    * ``"fifo"`` — one transfer at a time, the paper's M/G/1 abstraction
      (what the Eq. 9 bound assumes; exact heap-free fast path);
    * ``"ps"`` — processor sharing with server- and client-side NIC caps
      (how the EC2 testbed actually behaves);
    * ``"limited(c)"`` — at most ``c`` concurrent flows share each server
      fairly, later arrivals queue FIFO (a realistic connection-pool
      middle ground; ``limited(1)`` behaves like ``fifo``,
      ``limited(inf)`` is exactly ``ps``).

    ``tracer`` overrides the process-wide tracer for this run (``None``
    means use :func:`repro.obs.get_tracer`, a no-op unless installed).
    ``timeline``, ``popularity``, ``slo`` and ``causal`` enable one
    observer each for this run (:mod:`repro.obs.timeline`,
    :mod:`repro.obs.popularity`, :mod:`repro.obs.slo`,
    :mod:`repro.obs.causal`); ``None`` falls back to the config the
    observer's channel has installed ambiently
    (:meth:`repro.obs.sections.Channel.current`), itself ``None`` unless
    a harness installed one.
    """

    discipline: object = "ps"  # str spec or ServerDiscipline instance
    jitter: str = "exponential"  # or "deterministic"
    goodput: GoodputModel | None = field(default_factory=GoodputModel)
    stragglers: StragglerInjector = field(default_factory=StragglerInjector.none)
    seed: int | None = 0
    cache_budget: float | None = None  # cluster-wide bytes; None = unbounded
    miss_penalty: float = 3.0
    warmup_fraction: float = 0.1
    tracer: Tracer | None = None
    timeline: TimelineConfig | None = None
    popularity: PopularityConfig | None = None
    slo: SLOConfig | None = None
    causal: CausalConfig | None = None
    #: Requests per planned batch for the vectorized planning layer
    #: (:mod:`repro.cluster.engine.batch`).  ``None`` falls back to the
    #: ambient :func:`repro.cluster.engine.batch.get_batch_size`, itself
    #: ``None`` (scalar per-request path) unless installed.
    batch_size: int | None = None

    def __post_init__(self) -> None:
        from repro.cluster.engine.registry import resolve_discipline

        resolve_discipline(self.discipline)  # fail fast on unknown specs
        if self.jitter not in ("exponential", "deterministic"):
            raise ValueError(
                f"jitter must be 'exponential' or 'deterministic', "
                f"got {self.jitter!r}"
            )
        if self.cache_budget is not None and self.cache_budget <= 0:
            raise ValueError("cache_budget must be positive")
        if self.miss_penalty < 1:
            raise ValueError("miss_penalty must be >= 1")
        if not 0 <= self.warmup_fraction < 1:
            raise ValueError("warmup_fraction must be in [0, 1)")
        for ch in CHANNELS:
            value = getattr(self, ch.name, None)
            if value is not None and not isinstance(value, ch.config):
                raise TypeError(
                    f"{ch.name} must be a {ch.config.__name__} or None, "
                    f"got {type(value).__name__}"
                )
        if self.batch_size is not None:
            if not isinstance(self.batch_size, int) or isinstance(
                self.batch_size, bool
            ):
                raise TypeError(
                    f"batch_size must be an int or None, "
                    f"got {type(self.batch_size).__name__}"
                )
            if self.batch_size < 1:
                raise ValueError(
                    f"batch_size must be >= 1, got {self.batch_size}"
                )


@dataclass
class SimulationResult:
    """Per-request outcomes plus per-server accounting."""

    latencies: np.ndarray
    arrival_times: np.ndarray
    file_ids: np.ndarray
    server_bytes: np.ndarray  # bytes served per server (the Fig. 12 "load")
    hits: int
    misses: int
    config: SimulationConfig
    #: End-of-run observability snapshot — what the ``simulation_end``
    #: event carries; keys in
    #: :data:`repro.cluster.engine.lifecycle.METRIC_SNAPSHOT_KEYS`.
    metrics: dict[str, float | int | str] = field(default_factory=dict)
    #: Finalized sim-time timeline section (``None`` unless the run had
    #: timeline collection enabled) — see :mod:`repro.obs.timeline`.
    timeline: dict | None = None
    #: Finalized streaming-popularity section (``None`` unless the run
    #: had popularity observation enabled) — see
    #: :mod:`repro.obs.popularity`.
    popularity: dict | None = None
    #: Finalized SLO section (``None`` unless the run had SLO
    #: evaluation enabled) — see :mod:`repro.obs.slo`.
    slo: dict | None = None
    #: Finalized causal critical-path section (``None`` unless the run
    #: had causal collection enabled) — see :mod:`repro.obs.causal`.
    causal: dict | None = None

    @property
    def n_requests(self) -> int:
        return int(self.latencies.size)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 1.0

    def steady_state_latencies(self) -> np.ndarray:
        """Latencies with the warmup prefix dropped."""
        skip = int(self.n_requests * self.config.warmup_fraction)
        return self.latencies[skip:]

    def summary(self) -> LatencySummary:
        return summarize_latencies(self.steady_state_latencies())


def _validate_inputs(trace: object, planner: object, cluster: object) -> None:
    """Real exceptions, not ``assert``s — these survive ``python -O``."""
    if not isinstance(trace, ArrivalTrace) and not is_stream(trace):
        raise TypeError(
            f"trace must be an ArrivalTrace or WorkloadStream, "
            f"got {type(trace).__name__}"
        )
    if not isinstance(cluster, (ClusterSpec, ClusterTopology)):
        raise TypeError(
            f"cluster must be a ClusterSpec or ClusterTopology, "
            f"got {type(cluster).__name__}"
        )
    if not callable(getattr(planner, "plan_read", None)) or not callable(
        getattr(planner, "footprint", None)
    ):
        raise TypeError(
            "planner must honour the ReadPlanner protocol "
            f"(plan_read/footprint); got {type(planner).__name__}"
        )


class RequestLifecycle:
    """Everything one run shares across disciplines.

    Owns the RNG, the goodput memo, straggler report-delay semantics, the
    LRU hit/miss ledger, join latency arithmetic, READ/READ_DONE tracing,
    and the end-of-run metrics flush.  A discipline's ``run`` drives the
    queueing and calls back here for each station.

    RNG discipline: helpers consume draws in a fixed per-request order
    (plan, jitter, stragglers) so fixed seeds replay byte-identically.
    """

    def __init__(
        self,
        trace: ArrivalTrace | WorkloadStream,
        planner,
        cluster: ClusterSpec | ClusterTopology,
        config: SimulationConfig,
        engine: str,
    ) -> None:
        from repro.cluster.engine.batch import BatchPlanner, get_batch_size

        _validate_inputs(trace, planner, cluster)
        if not isinstance(config, SimulationConfig):
            raise TypeError(
                f"config must be a SimulationConfig, "
                f"got {type(config).__name__}"
            )
        self.planner = planner
        #: The epoch-versioned membership this run was launched against
        #: (``None`` when launched with a plain :class:`ClusterSpec`).
        #: The queueing below always runs against ``self.cluster`` —
        #: the topology's epoch-0 spec, byte-identical to a hand-built
        #: spec for fixed topologies — while churn experiments
        #: re-simulate per epoch and use ``topology`` for accounting.
        self.topology: ClusterTopology | None = (
            cluster if isinstance(cluster, ClusterTopology) else None
        )
        cluster = as_cluster_spec(cluster)
        self.cluster = cluster
        self.config = config
        self.engine = engine
        self.batch_size = (
            config.batch_size
            if config.batch_size is not None
            else get_batch_size()
        )
        self.stream: WorkloadStream | None = None
        self.trace: ArrivalTrace | None
        if isinstance(trace, ArrivalTrace):
            self.trace = trace
            self.n_requests = trace.n_requests
        else:
            self.stream = trace
            self.n_requests = int(trace.n_requests)
            # Only the batched fifo fast path consumes chunks directly
            # (assembling the trace as it goes); the heap disciplines and
            # the scalar loops need random access to the whole trace.
            if engine == "fifo" and self.batch_size:
                self.trace = None
            else:
                self.trace = trace.materialize()
        self.rng = make_rng(config.seed)
        self.bandwidths = cluster.bandwidths
        self.exponential = config.jitter == "exponential"
        self.goodput = config.goodput
        self.injector = config.stragglers
        self.straggler_mask = (
            self.injector.straggler_servers(cluster.n_servers, seed=self.rng)
            if self.injector.enabled and self.injector.mode == "per_server"
            else None
        )
        self.lru: LRUCache | None = (
            LRUCache(config.cache_budget)
            if config.cache_budget is not None
            else None
        )
        self.hits = 0
        self.misses = 0
        self.straggler_reads = 0
        self.tracer = config.tracer if config.tracer is not None else get_tracer()
        #: Hoisted enabled check — disabled tracing must stay free.
        self.emit = self.tracer.enabled
        if self.emit and self.topology is not None:
            self.topology.emit_events(self.tracer)
        self.scheme = planner_name(planner)
        # Each observer's config: the run's own, else its channel's
        # ambient one; ``None`` leaves that observer off.
        on = {
            ch.name: ch.resolve(getattr(config, ch.name))
            for ch in CHANNELS
            if ch.config is not None
        }
        run = {"scheme": self.scheme, "engine": engine}
        size = {"n_requests": self.n_requests, "n_servers": cluster.n_servers}
        self.collector: TimelineCollector | None = (
            TimelineCollector(on["timeline"], **size, **run)
            if on["timeline"] is not None
            else None
        )
        #: Hoisted timeline check — disabled collection must stay free.
        self.observe = self.collector is not None
        self.causal: CausalCollector | None = (
            CausalCollector(on["causal"], **size, **run)
            if on["causal"] is not None
            else None
        )
        #: The active per-partition recorders (timeline and/or causal).
        #: Both expose the same buffer-only hook API, so disciplines fan
        #: one guarded ``for c in lc.recorders:`` out to whichever are
        #: enabled; ``record`` is the hoisted emptiness check.
        self.recorders: tuple = tuple(
            c for c in (self.collector, self.causal) if c is not None
        )
        self.record = bool(self.recorders)
        self.popularity: PopularityMonitor | None = (
            PopularityMonitor(
                on["popularity"],
                n_servers=cluster.n_servers,
                tracer=self.tracer,
                **run,
            )
            if on["popularity"] is not None
            else None
        )
        #: Hoisted popularity check — disabled observation must stay free.
        self.track = self.popularity is not None
        self.slo_monitor: SLOMonitor | None = (
            SLOMonitor(on["slo"], tracer=self.tracer, **run)
            if on["slo"] is not None
            else None
        )
        #: Hot-path miss log (one bool per request, arrival order) the
        #: SLO evaluator buckets at finalize time; ``None`` keeps
        #: :meth:`admit` free when evaluation is disabled.
        self._slo_miss: list[bool] | None = (
            self.slo_monitor.miss_log if self.slo_monitor is not None else None
        )
        # Memoize goodput factors: parallelism is a small integer and
        # bandwidth comes from a short array, so this avoids one
        # interpolation per (fan-out, server-speed) pair.
        self._factor_memo: dict[tuple[int, float], float] = {}
        #: Vectorized planning layer; ``None`` keeps the scalar path
        #: (and its goldens) untouched.
        self.batch_planner: BatchPlanner | None = (
            BatchPlanner(self) if self.batch_size else None
        )

    # -- planning -----------------------------------------------------

    def plan(self, file_id: int) -> ReadOp:
        """Ask the policy for this request's fork-join."""
        return self.planner.plan_read(file_id, self.rng)

    def observe_popularity(self, t: float, file_id: int, op: ReadOp) -> None:
        """Feed one planned request to the popularity monitor.

        Guard call sites with ``if lifecycle.track:`` so disabled
        observation stays free.  This appends straight into the
        monitor's window buffers (the engine hot loop runs it per
        request; :meth:`PopularityMonitor.observe` is the same fold for
        external callers) — only the rare window boundary does real work.
        """
        mon = self.popularity
        if mon._time_mode:
            mon.observe(file_id, t=t, servers=op.server_ids, sizes=op.sizes)
            return
        if mon._t_first is None:
            mon._t_first = t
        mon._t_last = t
        pend = mon._pend
        pend.append(file_id)
        if len(pend) >= mon._win_requests:
            mon._roll()

    def goodput_factor(self, parallelism: int, bandwidth: float) -> float:
        """Memoized per-connection goodput multiplier (1.0 when disabled)."""
        if self.goodput is None:
            return 1.0
        key = (parallelism, bandwidth)
        cached = self._factor_memo.get(key)
        if cached is None:
            cached = self.goodput.factor(parallelism, bandwidth)
            self._factor_memo[key] = cached
        return cached

    # -- stragglers ---------------------------------------------------

    def report_delays(self, op: ReadOp) -> tuple[np.ndarray, np.ndarray]:
        """Straggler report delays for one fork-join.

        Returns ``(extra_seconds, multipliers)`` aligned with
        ``op.server_ids``.  The paper injects stragglers by sleeping the
        serving thread, so a straggling read *reports* late by
        ``(m - 1)`` times its nominal transfer time while the NIC frees
        on schedule — disciplines add ``extra`` to the reported
        completion only, never to queue occupancy.  Call only when
        ``self.injector.enabled``; consumes RNG draws.
        """
        mult = self.injector.multipliers(
            op.server_ids, straggler_mask=self.straggler_mask, seed=self.rng
        )
        extra = (mult - 1.0) * (op.sizes / self.bandwidths[op.server_ids])
        return extra, mult

    def count_straggled(self, straggled: bool) -> None:
        self.straggler_reads += bool(straggled)

    # -- cache admission ----------------------------------------------

    def admit(self, file_id: int) -> bool:
        """LRU touch/put under the cache budget; ``True`` means a miss.

        Called once per request in arrival order by every discipline, so
        it doubles as the SLO miss-flag hook: the only enabled-path cost
        is one list append (the evaluator buckets at finalize time).
        """
        missed = False
        if self.lru is not None:
            if self.lru.touch(file_id):
                self.hits += 1
            else:
                self.misses += 1
                self.lru.put(file_id, self.planner.footprint(file_id))
                missed = True
        if self._slo_miss is not None:
            self._slo_miss.append(missed)
        return missed

    # -- join accounting ----------------------------------------------

    def request_latency(
        self,
        arrival_ts: float,
        join_at: float,
        post_fraction: float,
        post_seconds: float,
        missed: bool,
    ) -> float:
        """Fold post-join compute and the miss penalty into one latency."""
        latency = (join_at - arrival_ts) * (1.0 + post_fraction) + post_seconds
        if missed:
            latency *= self.config.miss_penalty
        return latency

    # -- tracing ------------------------------------------------------

    def emit_read(
        self,
        *,
        ts: float,
        req: int,
        file_id: int,
        op: ReadOp,
        straggled: bool,
        missed: bool,
        **extra: float,
    ) -> None:
        """One READ event at the request's arrival.

        Guard call sites with ``if lifecycle.emit:`` so disabled tracing
        does not pay for argument marshalling.
        """
        self.tracer.event(
            ev.READ,
            ts=ts,
            req=req,
            scheme=self.scheme,
            file_id=file_id,
            servers=[int(s) for s in op.server_ids],
            sizes=[float(b) for b in op.sizes],
            **extra,
            straggler=straggled,
            miss=missed,
        )

    def emit_read_done(
        self, *, ts: float, req: int, file_id: int, latency: float
    ) -> None:
        """One READ_DONE event at the request's reported completion."""
        self.tracer.event(
            ev.READ_DONE,
            ts=ts,
            req=req,
            scheme=self.scheme,
            file_id=file_id,
            latency=float(latency),
        )

    # -- end of run ---------------------------------------------------

    def result(
        self, latencies: np.ndarray, server_bytes: np.ndarray
    ) -> SimulationResult:
        """Flush run metrics and build the :class:`SimulationResult`."""
        metrics = record_run_metrics(
            scheme=self.scheme,
            engine=self.engine,
            server_bytes=server_bytes,
            latencies=latencies,
            hits=self.hits,
            misses=self.misses,
            straggler_reads=self.straggler_reads,
            tracer=self.tracer,
            end_ts=float(self.trace.times[-1]) if self.n_requests else 0.0,
        )
        # Finalize order is fixed: the trace sees timeline windows before
        # causal spans, and SLO evaluation reads the popularity section.
        sections: dict[str, dict | None] = {
            ch.name: None for ch in CHANNELS if ch.config is not None
        }
        requests = {
            "times": self.trace.times,
            "file_ids": self.trace.file_ids,
            "latencies": latencies,
            "warmup_fraction": self.config.warmup_fraction,
        }
        if self.collector is not None:
            sections["timeline"] = self.collector.finalize(**requests)
            if self.emit:
                self._emit_timeline_windows(sections["timeline"])
        if self.causal is not None:
            sections["causal"] = self.causal.finalize(**requests)
            if self.emit:
                self.causal.emit_spans(self.tracer)
        if self.popularity is not None:
            sections["popularity"] = self.popularity.finalize()
        if self.slo_monitor is not None:
            sections["slo"] = self.slo_monitor.evaluate(
                self.trace.times,
                latencies,
                missed=self._slo_miss if self.lru is not None else None,
                server_bytes=server_bytes,
                popularity=sections["popularity"],
            )
        for ch in CHANNELS:
            if sections.get(ch.name) is not None:
                ch.publish(sections[ch.name])
        return SimulationResult(
            latencies=latencies,
            arrival_times=self.trace.times.copy(),
            file_ids=self.trace.file_ids.copy(),
            server_bytes=server_bytes,
            hits=self.hits,
            misses=self.misses,
            config=self.config,
            metrics=metrics,
            **sections,
        )

    def _emit_timeline_windows(self, timeline: dict) -> None:
        """One ``timeline_window`` trace event per retained window."""
        window_s = timeline["window_s"]
        for w in range(timeline["n_windows"]):
            served = timeline["bytes"][w]
            busy = timeline["busy_s"][w]
            depth = timeline["queue_depth"][w]
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
