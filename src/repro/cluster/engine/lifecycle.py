"""The request lifecycle shared by every server discipline.

Whatever the service discipline, one simulated read goes through the same
stations.  :meth:`RequestLifecycle.batches` plans requests in arrival
order, ``batch_size`` at a time (:mod:`repro.cluster.engine.batch`): the
policy's fork-join, per-connection goodput (memoized in
:meth:`RequestLifecycle.goodput_row`), optional exponential jitter, and
straggler report delays, which postpone the *reported* completion without
holding the NIC (the paper injects by sleeping the serving thread).  A
cluster-wide LRU decides hit/miss under a cache budget
(:meth:`RequestLifecycle.admit`), the join fires after ``join_count``
completions and the latency folds in post-join decode plus any miss
penalty (:meth:`RequestLifecycle.request_latency`), and the run ends with
one metrics/tracing flush (:meth:`RequestLifecycle.result`).

Disciplines (:mod:`repro.cluster.engine.registry`) own only the queueing:
*when* each partition read finishes.  Everything else lives here, once.
"""

from __future__ import annotations

import numbers
import secrets
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.cluster.client import ReadOp
from repro.cluster.engine import draws
from repro.cluster.engine.batch import (
    DEFAULT_BATCH_SIZE,
    BatchPlanner,
    PlanBatch,
)
from repro.cluster.metrics import (
    LatencySummary,
    imbalance_factor,
    summarize_latencies,
)
from repro.cluster.network import GoodputModel
from repro.cluster.stragglers import StragglerInjector
from repro.cluster.topology import ClusterTopology, as_cluster_spec
from repro.common import ClusterSpec
from repro.obs import events as ev
from repro.obs.metrics import get_registry
from repro.obs.sections import (
    RunEnd,
    RunStart,
    finish_observers,
    observer_configs,
    start_observers,
)
from repro.obs.timeline import PartitionLog
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
    ``observers`` enables run observers (:mod:`repro.obs.sections`): a
    tuple of observer configs, at most one per channel, each matched to
    its channel by type.  A channel without one there falls back to the
    config installed ambiently (:meth:`~repro.obs.sections.Channel.use`),
    if any.
    """

    discipline: object = "ps"  # str spec or ServerDiscipline instance
    jitter: str = "exponential"  # or "deterministic"
    goodput: GoodputModel | None = field(default_factory=GoodputModel)
    stragglers: StragglerInjector = field(default_factory=StragglerInjector.none)
    #: Key of every draw the run makes (:mod:`repro.cluster.engine.draws`):
    #: an int in ``[0, 2**64)``, or ``None`` for fresh entropy (the drawn
    #: key is recorded on :attr:`SimulationResult.seed`).
    seed: int | None = 0
    cache_budget: float | None = None  # cluster-wide bytes; None = unbounded
    miss_penalty: float = 3.0
    warmup_fraction: float = 0.1
    tracer: Tracer | None = None
    observers: tuple = ()
    #: Requests per planned batch (:mod:`repro.cluster.engine.batch`);
    #: ``None`` means :data:`~repro.cluster.engine.batch.DEFAULT_BATCH_SIZE`.
    #: A tuning knob only: results are identical at every size.
    batch_size: int | None = None

    def __post_init__(self) -> None:
        from repro.cluster.engine.registry import resolve_discipline

        resolve_discipline(self.discipline)  # fail fast on unknown specs
        if self.seed is not None:
            if isinstance(self.seed, (bool, np.bool_)) or not isinstance(
                self.seed, numbers.Integral
            ):
                raise TypeError(
                    f"seed must be an int in [0, 2**64) or None, "
                    f"got {type(self.seed).__name__} {self.seed!r}"
                )
            if not 0 <= self.seed < 2**64:
                raise ValueError(
                    f"seed must be in [0, 2**64), got {self.seed!r}"
                )
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
        observer_configs(self.observers)
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
    #: The finished section of every observer the run enabled, keyed by
    #: channel name (``"timeline"``, ``"popularity"``, ...; see
    #: :mod:`repro.obs.sections`).
    sections: dict[str, dict] = field(default_factory=dict)
    #: The draw key the run used: ``config.seed``, or the fresh key drawn
    #: when that is ``None`` (pass it back as ``seed`` to replay the run).
    seed: int | None = None

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

    Owns the draw key, the goodput memo, straggler report-delay
    semantics, the LRU hit/miss ledger, join latency arithmetic,
    READ/READ_DONE tracing, and the end-of-run metrics flush.  A
    discipline's ``run`` pulls planned batches from :meth:`batches`,
    drives the queueing, and calls back here for each station.

    Draws: every random number is keyed by ``(seed, purpose, request,
    slot)`` (:mod:`repro.cluster.engine.draws`), so fixed seeds replay
    byte-identically whatever the batch size.
    """

    def __init__(
        self,
        trace: ArrivalTrace | WorkloadStream,
        planner,
        cluster: ClusterSpec | ClusterTopology,
        config: SimulationConfig,
        engine: str,
    ) -> None:
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
        self.batch_size = config.batch_size or DEFAULT_BATCH_SIZE
        self.stream: WorkloadStream | None = None
        self.trace: ArrivalTrace | None
        if isinstance(trace, ArrivalTrace):
            self.trace = trace
            self.n_requests = trace.n_requests
        else:
            self.stream = trace
            self.n_requests = int(trace.n_requests)
            # Only fifo consumes chunks directly (batches() assembles the
            # trace as it goes); the heap disciplines need random access
            # to the whole trace.
            if engine == "fifo":
                self.trace = None
            else:
                self.trace = trace.materialize()
        #: Key of every draw (:mod:`repro.cluster.engine.draws`).
        self.seed = (
            int(config.seed) if config.seed is not None else secrets.randbits(64)
        )
        self.bandwidths = cluster.bandwidths
        self.exponential = config.jitter == "exponential"
        self.goodput = config.goodput
        self.injector = config.stragglers
        self.per_server = self.injector.mode == "per_server"
        self.straggler_mask = (
            draws.uniforms(
                self.seed, draws.SERVER_MASK, 0, np.arange(cluster.n_servers)
            )
            < self.injector.profile.probability
            if self.injector.enabled and self.per_server
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
        #: The run's enabled observers by channel name; the hoisted hooks
        #: below come from the roles they declare (``repro.obs.sections``).
        run = RunStart(
            self.scheme, engine, self.n_requests, cluster.n_servers, self.tracer
        )
        self.observers = start_observers(config.observers, run)
        started = tuple(self.observers.values())
        #: The run's one partition log, fed by the disciplines'
        #: ``record_*_frame`` calls when any observer records; ``record``
        #: is the hoisted check.
        self.log: PartitionLog | None = (
            PartitionLog(self.n_requests)
            if any(o.records for o in started)
            else None
        )
        self.record = self.log is not None
        #: The observer fed every planned batch (:meth:`account_bytes`).
        self.popularity = next((o for o in started if o.feeds), None)
        self.track = self.popularity is not None
        #: Miss flags in arrival order; ``None`` keeps :meth:`admit` free.
        self._miss_log: list[bool] | None = next(
            (o.miss_log for o in started if o.miss_log is not None), None
        )
        # Memoize goodput factors per fan-out: parallelism is a small
        # integer, so this avoids one interpolation per flow.
        self._goodput_rows: dict[int, np.ndarray] = {}
        self.batch_planner = BatchPlanner(self)

    # -- planning -----------------------------------------------------

    def batches(self) -> Iterator[tuple[int, PlanBatch]]:
        """Plan the run in arrival order, ``batch_size`` requests at a time.

        Yields ``(j0, batch)``: the batch holds requests
        ``j0 .. j0 + batch.n - 1``.  A streamed fifo run
        (``self.trace is None``) pulls its chunks from the stream and
        assembles :attr:`trace` once the last batch has been consumed.
        """
        plan = self.batch_planner.plan_batch
        size = self.batch_size
        if self.trace is not None:
            times = self.trace.times
            file_ids = self.trace.file_ids
            for j0 in range(0, self.n_requests, size):
                hi = j0 + size
                yield j0, plan(times[j0:hi], file_ids[j0:hi], j0)
            return
        all_times = np.empty(self.n_requests)
        all_fids = np.empty(self.n_requests, dtype=np.int64)
        j0 = 0
        for times, file_ids in self.stream.chunks(size):
            batch = plan(times, file_ids, j0)
            all_times[j0 : j0 + batch.n] = batch.times
            all_fids[j0 : j0 + batch.n] = batch.file_ids
            yield j0, batch
            j0 += batch.n
        self.trace = ArrivalTrace(all_times, all_fids)

    def byte_ledger(self) -> np.ndarray:
        """A zeroed per-server byte ledger for :meth:`account_bytes`,
        attached to the feed observer (its window loads are ledger
        snapshot differences)."""
        ledger = np.zeros(self.cluster.n_servers)
        if self.track:
            self.popularity.attach_cumulative_loads(ledger)
        return ledger

    def account_bytes(self, batch: PlanBatch, server_bytes: np.ndarray) -> None:
        """Add one planned batch's bytes to the :meth:`byte_ledger` in
        flow order (``np.add.at`` counts duplicate servers too); a feed
        observer's ``observe_batch`` accrues them between its window
        rolls, so each roll sees the bytes of every earlier request."""
        servers, sizes = batch.servers, batch.sizes
        if not self.track:
            np.add.at(server_bytes, servers, sizes)
            return
        off = batch.req_off

        def accrue(lo: int, hi: int) -> None:
            a, b = off[lo], off[hi]
            np.add.at(server_bytes, servers[a:b], sizes[a:b])

        self.popularity.observe_batch(batch.times, batch.file_ids, accrue)

    def goodput_row(self, parallelism: int) -> np.ndarray:
        """Every server's memoized goodput multiplier at fan-out
        ``parallelism`` (all 1.0 when goodput loss is disabled)."""
        row = self._goodput_rows.get(parallelism)
        if row is None:
            row = self._goodput_rows[parallelism] = np.array(
                [
                    1.0
                    if self.goodput is None
                    else self.goodput.factor(parallelism, float(b))
                    for b in self.bandwidths
                ]
            )
        return row

    # -- cache admission ----------------------------------------------

    def admit(self, file_id: int) -> bool:
        """LRU touch/put under the cache budget; ``True`` means a miss.

        A file larger than the whole budget is served as an uncached
        miss: it pays the miss penalty every time and is never inserted.
        Called once per request in arrival order by every discipline, so
        it doubles as the miss-log hook: the only enabled-path cost is one
        list append (the SLO evaluator buckets at finish time).
        """
        missed = False
        if self.lru is not None:
            if self.lru.touch(file_id):
                self.hits += 1
            else:
                self.misses += 1
                footprint = self.planner.footprint(file_id)
                if footprint <= self.lru.capacity:
                    self.lru.put(file_id, footprint)
                missed = True
        if self._miss_log is not None:
            self._miss_log.append(missed)
        return missed

    def admit_many(self, file_ids: np.ndarray) -> np.ndarray:
        """:meth:`admit` for a batch of requests in arrival order; returns
        the miss flags."""
        if self.lru is None:
            missed = np.zeros(file_ids.size, dtype=bool)
            if self._miss_log is not None:
                self._miss_log.extend(missed.tolist())
            return missed
        admit = self.admit
        return np.array([admit(f) for f in file_ids.tolist()], dtype=bool)

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
        end = RunEnd(
            self.trace.times, self.trace.file_ids, latencies, server_bytes,
            self.config.warmup_fraction, self.log,
        )
        return SimulationResult(
            latencies=latencies,
            arrival_times=self.trace.times.copy(),
            file_ids=self.trace.file_ids.copy(),
            server_bytes=server_bytes,
            hits=self.hits,
            misses=self.misses,
            config=self.config,
            metrics=metrics,
            sections=finish_observers(self.observers, end),
            seed=self.seed,
        )
