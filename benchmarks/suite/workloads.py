"""The four benchmark workloads: two simulator passes and two byte-store loops.

Every workload has the same life cycle, driven by ``run.py``:

``setup(seed, scale, workdir, lt)``
    builds the system from inputs generated from ``seed``; returns the
    state and the seconds the system itself spent (input generation, such
    as payload bytes, is not counted);
``warmup(state)``
    untimed load, so caches fill and lazy state settles before timing;
``run(state, lt, windows=n, start=i)``
    the measured phase: ``n`` windows of fixed work (windows ``i`` ..
    ``i + n - 1`` of the run), returned as a :class:`Phase`.  ``run.py``
    derives the run's window count from ``--seconds`` and the workload's
    ``window_seconds``, so the work done depends only on the arguments —
    never on how fast this build happens to be.  Every window is the same
    work, so the best window estimates the build's speed;
``check(state)``
    oracles over the whole run that are not tied to one operation.

``seed`` drives only generated inputs — arrival streams, op sequences and
payload bytes.  The program's own seeds (policy placement, simulator RNG,
store placement) stay at the values the figures and the store use.
"""

from __future__ import annotations

import copy
import sys
import time
import traceback
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from repro.cluster.engine import DEFAULT_BATCH_SIZE
from repro.cluster.simulation import simulate_reads
from repro.experiments.config import DEFAULTS, EC2_CLUSTER, sim_config
from repro.experiments.skew_resilience import default_schemes, improvement_pct
from repro.obs.causal import CausalConfig, collect_causal, use_causal
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.runinfo import build_manifest, write_manifest
from repro.obs.slo import collect_slo, default_slo_config, use_slo
from repro.obs.timeline import TimelineConfig, collect_timelines, use_timeline
from repro.store import LineageGraph, Master, StoreClient, UnderStore, Worker
from repro.system import SPCacheSystem
from repro.workloads import PoissonStream, paper_fileset

from layers import UNTRACED

KiB = 1024
RATE = 14.0  # Sec. 7.3 aggregate request rate, req/s
ZIPF = 1.05


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


@dataclass
class Window:
    """One window of fixed work."""

    #: Simulated requests (sim) or successful client ops (store).
    units: int = 0
    #: Wall seconds of the system's own work.  Input generation and
    #: output verification are not in it.
    busy_s: float = 0.0
    #: ``(kind, seconds)`` per operation: one scheme's simulation of the
    #: pass's stream (the kind is the scheme), or one store
    #: ``read``/``write``.
    ops: list[tuple[str, float]] = field(default_factory=list)


@dataclass
class Phase:
    """What one measured phase did."""

    windows: list[Window] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: list[Check] = field(default_factory=list)
    #: Workload-specific sums the per-layer metrics are derived from.
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        return sum(w.busy_s for w in self.windows)

    @property
    def ops(self) -> list[tuple[str, float]]:
        return [op for w in self.windows for op in w.ops]

    def add(self, key: str, value: float) -> None:
        self.stats[key] = self.stats.get(key, 0.0) + value

    def merge_outcomes(self, other: "Phase") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.checks.extend(other.checks)


def _seed(*parts: int) -> int:
    """One 32-bit seed from the workload seed and a purpose/pass index."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, int(value * scale))


# -- simulator workloads -----------------------------------------------------


@dataclass
class SimState:
    seed: int
    population: Any
    policies: dict[str, Any]
    config: Any
    n_requests: int
    workdir: Path


class SimWorkload:
    """Every default scheme on one Sec. 7.3 stream per pass (one fig13 point).

    A window is one *pass*: the three schemes each simulate the same fresh
    ``PoissonStream`` — one operation per scheme, observer finalize
    included — and, when observers are on, the pass's run manifest is
    built and written.
    """

    warmup_requests = 200

    def __init__(
        self,
        name: str,
        *,
        discipline: str,
        batch_size: int | None,
        observers: bool,
        n_requests: int,
        window_seconds: float,
        parity_prefix: int | None = None,
    ) -> None:
        self.name = name
        self.discipline = discipline
        self.batch_size = batch_size
        self.observers = observers
        self.n_requests = n_requests
        self.window_seconds = window_seconds
        self.parity_prefix = parity_prefix

    def setup(self, seed: int, scale: float, workdir: Path, lt=UNTRACED):
        start = time.perf_counter()
        population = paper_fileset(
            500, size_mb=100, zipf_exponent=ZIPF, total_rate=RATE
        )
        policies = {}
        for scheme, factory in default_schemes().items():
            with lt.span("policies.build", scheme=scheme):
                policies[scheme] = factory(population, EC2_CLUSTER)
        config = replace(
            sim_config(discipline=self.discipline), batch_size=self.batch_size
        )
        state = SimState(
            seed=seed,
            population=population,
            policies=policies,
            config=config,
            n_requests=_scaled(self.n_requests, scale, 200),
            workdir=workdir,
        )
        return state, time.perf_counter() - start

    def warmup(self, state: SimState) -> Phase:
        phase = Phase()
        warm = replace(state, n_requests=min(self.warmup_requests, state.n_requests))
        # A pass index no measured pass uses, so warm-up draws its own stream.
        self._pass(warm, 1_000_000, phase, UNTRACED, paired_off=False)
        return phase

    def run(
        self,
        state: SimState,
        lt=UNTRACED,
        *,
        windows: int,
        start: int = 0,
        paired_off: bool = False,
    ) -> Phase:
        """Passes ``start`` .. ``start + windows - 1``; ``paired_off`` reruns
        each scheme right after its measured run with observers off, for
        the observers' overhead."""
        phase = Phase()
        for p in range(start, start + windows):
            self._pass(state, p, phase, lt, paired_off)
        return phase

    def _observed(self, timelines, causal, slo):
        if not self.observers:
            return nullcontext()
        # The fig13 observers run_all installs: timeline + causal (a
        # timeline experiment) and the default SLO (every experiment).
        stack = ExitStack()
        stack.enter_context(collect_timelines(timelines))
        stack.enter_context(collect_causal(causal))
        stack.enter_context(collect_slo(slo))
        stack.enter_context(use_timeline(TimelineConfig()))
        stack.enter_context(use_causal(CausalConfig()))
        stack.enter_context(use_slo(default_slo_config()))
        return stack

    def _pass(self, state: SimState, p: int, phase: Phase, lt, paired_off: bool):
        n = state.n_requests
        stream = PoissonStream(
            state.population, n_requests=n, seed=_seed(state.seed, p)
        )
        timelines: list[dict] = []
        causal: list[dict] = []
        slo: list[dict] = []
        registry = MetricsRegistry()  # a private registry per pass, as run_all
        previous = set_registry(registry)
        summaries: dict[str, Any] = {}
        window = Window(units=n * len(state.policies))
        try:
            for scheme, policy in state.policies.items():
                start = time.perf_counter()
                with self._observed(timelines, causal, slo):
                    with lt.span("engine.run", scheme=scheme):
                        result = simulate_reads(
                            stream, policy, EC2_CLUSTER, state.config
                        )
                wall = time.perf_counter() - start
                window.ops.append((scheme, wall))
                window.busy_s += wall
                phase.attempted += 1
                phase.add(f"requests.{scheme}", n)
                phase.add(f"wall.{scheme}", wall)
                problems = _run_problems(state.population, policy, result, n)
                if problems:
                    phase.failed += 1
                    phase.checks.append(
                        Check(f"run.{scheme}.pass{p}", False, "; ".join(problems))
                    )
                summaries[scheme] = result.summary()
                if paired_off:
                    phase.add("obs_on_s", wall)
                    start = time.perf_counter()
                    simulate_reads(stream, policy, EC2_CLUSTER, state.config)
                    phase.add("obs_off_s", time.perf_counter() - start)
            if self.observers:
                start = time.perf_counter()
                with lt.span("obs.manifest"):
                    manifest = build_manifest(
                        f"bench-{self.name}",
                        [_fig13_row(summaries)],
                        wall_s=window.busy_s,
                        seed=state.seed,
                        config={"workload": self.name, "pass": p, "n_requests": n},
                        metrics=registry.snapshot(),
                        timelines=timelines,
                        slo=slo,
                        causal=causal,
                    )
                    write_manifest(manifest, state.workdir / f"{self.name}.json")
                window.busy_s += time.perf_counter() - start
        finally:
            set_registry(previous)
        phase.windows.append(window)
        sp = summaries["sp-cache"].mean
        ec = summaries["ec-cache"].mean
        rep = summaries["selective-replication"].mean
        if not (sp < ec and sp < rep):
            phase.checks.append(
                Check(
                    f"fig13_direction.pass{p}",
                    False,
                    f"mean sp={sp:.4f}s ec={ec:.4f}s rep={rep:.4f}s",
                )
            )

    def check(self, state: SimState) -> list[Check]:
        if self.parity_prefix is None:
            return []
        # Scalar and batched engines must agree bit for bit on a prefix.
        n = min(self.parity_prefix, state.n_requests)
        stream = PoissonStream(
            state.population, n_requests=n, seed=_seed(state.seed, 0)
        )
        scalar_config = replace(state.config, batch_size=None)
        checks = []
        for scheme, policy in state.policies.items():
            a = simulate_reads(stream, policy, EC2_CLUSTER, scalar_config)
            b = simulate_reads(stream, policy, EC2_CLUSTER, state.config)
            same = (
                a.latencies.tobytes() == b.latencies.tobytes()
                and a.server_bytes.tobytes() == b.server_bytes.tobytes()
                and (a.hits, a.misses) == (b.hits, b.misses)
            )
            checks.append(
                Check(f"scalar_batched_parity.{scheme}", same, f"{n} requests")
            )
        return checks


def _run_problems(population, policy, result, n: int) -> list[str]:
    """Per-run oracles: exact request count, sane latencies, byte conservation."""
    problems = []
    lat = result.latencies
    if lat.size != n:
        problems.append(f"{lat.size} latencies for {n} requests")
    if not (np.isfinite(lat).all() and (lat > 0).all()):
        problems.append("non-finite or non-positive latency")
    # Every request moves its file's bytes once — (k+1)/k times for
    # EC-Cache's late binding, which fetches k + 1 shards of S/k bytes.
    factor = 1.0
    if hasattr(policy, "late_binding"):
        fetched = min(policy.k + 1, policy.n) if policy.late_binding else policy.k
        factor = fetched / policy.k
    expected = float(population.sizes[result.file_ids].sum()) * factor
    served = float(result.server_bytes.sum())
    if not np.isclose(served, expected, rtol=1e-9, atol=0.0):
        problems.append(f"served {served:.6e} B, expected {expected:.6e} B")
    return problems


def _fig13_row(summaries: dict[str, Any]) -> dict[str, float]:
    sp, ec, rep = (
        summaries["sp-cache"],
        summaries["ec-cache"],
        summaries["selective-replication"],
    )
    return {
        "rate": RATE,
        "sp_mean": sp.mean,
        "ec_mean": ec.mean,
        "rep_mean": rep.mean,
        "sp_p95": sp.p95,
        "ec_p95": ec.p95,
        "rep_p95": rep.p95,
        "mean_vs_ec_pct": improvement_pct(ec.mean, sp.mean),
        "tail_vs_ec_pct": improvement_pct(ec.p95, sp.p95),
        "mean_vs_rep_pct": improvement_pct(rep.mean, sp.mean),
        "tail_vs_rep_pct": improvement_pct(rep.p95, sp.p95),
    }


# -- byte-store workloads ----------------------------------------------------


class OpStream:
    """Seeded closed-loop op sequence over a growing file set.

    Every ``write_every``-th op writes a new file, so the store grows by
    the same bytes on every seed; the others read a file picked by Zipf
    rank over every file written so far.  The initial files take the
    ranks in a seeded order and each new file joins at the cold end.
    Payload bytes are a pure function of (seed, file id), so a read is
    checked against them without keeping every file's bytes in memory.
    """

    def __init__(self, seed: int, n_files: int, file_bytes: int, write_every: int):
        self.file_bytes = file_bytes
        self.write_every = write_every
        self.rng = np.random.default_rng(_seed(seed, 1))
        self.order = [
            int(f) for f in np.random.default_rng(_seed(seed, 2)).permutation(n_files)
        ]
        self.next_id = n_files
        self.issued = 0
        self._cdf = np.zeros(0)
        block = np.random.default_rng(_seed(seed, 3)).bytes(file_bytes)
        # Every rotation of the block is a slice of it written twice.
        self._twice = block + block

    def _body(self, file_id: int) -> memoryview:
        k = file_id * 2654435761 % self.file_bytes
        return memoryview(self._twice)[k + 8 : k + self.file_bytes]

    def payload(self, file_id: int) -> bytes:
        """The file id, then the seeded block rotated by a per-file offset:
        distinct for every file and cheap to rebuild."""
        return file_id.to_bytes(8, "little") + self._body(file_id)

    def matches(self, file_id: int, data: bytes) -> bool:
        """``data == payload(file_id)``, compared without building it."""
        return (
            len(data) == self.file_bytes
            and data[:8] == file_id.to_bytes(8, "little")
            and data.startswith(self._body(file_id), 8)
        )

    def pick(self, rng: np.random.Generator) -> int:
        n = len(self.order)
        if self._cdf.size < n:
            self._cdf = np.cumsum(np.arange(1, 2 * n + 1, dtype=np.float64) ** -ZIPF)
        u = rng.random() * self._cdf[n - 1]
        rank = int(np.searchsorted(self._cdf[:n], u, side="right"))
        return self.order[min(rank, n - 1)]

    def next_op(self) -> tuple[str, int]:
        self.issued += 1
        if self.issued % self.write_every == 0:
            fid = self.next_id
            self.next_id += 1
            self.order.append(fid)
            return "write", fid
        return "read", self.pick(self.rng)


@dataclass
class StoreState:
    ops: OpStream
    workers: list
    client: StoreClient
    window_ops: int
    system: SPCacheSystem | None = None


class StoreWorkload:
    """Closed loop, one client: each op is issued when the previous returns.

    A window is ``window_ops`` consecutive ops on a copy of the warmed
    store.  Every window starts from the same store, so new-file writes
    do not pile up across windows and each window is the same work; the
    read picks still differ, as they come from one stream for the run.
    """

    def __init__(
        self,
        name: str,
        *,
        n_files: int,
        file_kib: int,
        write_every: int,
        window_ops: int,
        warmup_ops: int,
        window_seconds: float,
    ) -> None:
        self.name = name
        self.n_files = n_files
        self.file_kib = file_kib
        self.write_every = write_every
        self.window_ops = window_ops
        self.warmup_ops = warmup_ops
        self.window_seconds = window_seconds

    def _op_stream(self, seed: int, scale: float) -> OpStream:
        n_files = _scaled(self.n_files, scale, 40)
        file_bytes = _scaled(self.file_kib, scale, 16) * KiB
        return OpStream(seed, n_files, file_bytes, self.write_every)

    def warmup(self, state: StoreState) -> Phase:
        phase = Phase()
        self._ops(state, phase, Window(), min(self.warmup_ops, state.window_ops))
        return phase

    def run(
        self, state: StoreState, lt=UNTRACED, *, windows: int, start: int = 0
    ) -> Phase:
        phase = Phase()
        for _ in range(windows):
            # Payload blocks are immutable bytes, so the copy shares them;
            # the op stream's generator is shared too, so picks go on.
            live = copy.deepcopy(state, {id(state.ops.rng): state.ops.rng})
            window = Window()
            self._ops(live, phase, window, live.window_ops)
            window.busy_s += self._end_window(live, phase, lt)
            phase.windows.append(window)
            phase.add("evictions", _evictions(live.workers) - _evictions(state.workers))
            phase.add("recoveries", live.client.recoveries - state.client.recoveries)
            phase.stats["stored_per_user_byte"] = stored_per_user_byte(live)
        return phase

    def _ops(self, state: StoreState, phase: Phase, window: Window, n: int) -> None:
        """``n`` ops, timed into ``window``; failures go to ``phase``."""
        ops = state.ops
        for _ in range(n):
            kind, fid = ops.next_op()
            phase.attempted += 1
            detail = "read returned other bytes than were written"
            try:
                if kind == "read":
                    start = time.perf_counter()
                    data = self._read(state, fid)
                    wall = time.perf_counter() - start
                    ok = ops.matches(fid, data)
                else:
                    data = ops.payload(fid)
                    start = time.perf_counter()
                    self._write(state, fid, data)
                    wall = time.perf_counter() - start
                    ok = True
            except Exception as exc:  # an op that raises counts as failed
                traceback.print_exc(file=sys.stderr)
                ok, detail = False, repr(exc)
            if ok:
                window.ops.append((kind, wall))
                window.units += 1
                window.busy_s += wall
            else:
                phase.failed += 1
                phase.checks.append(Check(f"{kind}.{fid}", False, detail))
            self._after_op(state, phase)

    def _after_op(self, state: StoreState, phase: Phase) -> None:
        pass

    def _end_window(self, state: StoreState, phase: Phase, lt) -> float:
        """Work closing a window; returns its system seconds."""
        return 0.0

    def check(self, state: StoreState) -> list[Check]:
        return []


def _evictions(workers) -> int:
    return sum(len(w.evicted_blocks) for w in workers)


def stored_per_user_byte(state: StoreState) -> float:
    """Bytes the workers hold per byte of the files the master knows."""
    user = float(sum(m.size for m in state.client.master.files()))
    return float(sum(w.used_bytes for w in state.workers)) / user


class SPStoreWorkload(StoreWorkload):
    """``SPCacheSystem`` on 30 unbounded workers; each window ends with one
    periodic ``rebalance`` (Algorithms 1 and 2 plus the data movement)."""

    learn_reads = 2000

    def setup(self, seed: int, scale: float, workdir: Path, lt=UNTRACED):
        ops = self._op_stream(seed, scale)
        start = time.perf_counter()
        system = SPCacheSystem(EC2_CLUSTER, seed=0)
        busy = time.perf_counter() - start
        for fid in range(len(ops.order)):
            data = ops.payload(fid)
            start = time.perf_counter()
            system.write(fid, data)
            busy += time.perf_counter() - start
        # One access window before the first rebalance, so Algorithms 1/2
        # see Zipf popularities rather than an empty window.
        learn = np.random.default_rng(_seed(seed, 4))
        picks = [ops.pick(learn) for _ in range(_scaled(self.learn_reads, scale, 200))]
        start = time.perf_counter()
        for fid in picks:
            system.read(fid)
        with lt.span("store.rebalance"):
            system.rebalance(total_rate=RATE)
        busy += time.perf_counter() - start
        state = StoreState(
            ops=ops,
            workers=system.workers,
            client=system.client,
            window_ops=_scaled(self.window_ops, scale, 100),
            system=system,
        )
        return state, busy

    def _read(self, state: StoreState, fid: int) -> bytes:
        return state.system.read(fid)

    def _write(self, state: StoreState, fid: int, data: bytes) -> None:
        state.system.write(fid, data)

    def _end_window(self, state: StoreState, phase: Phase, lt) -> float:
        phase.attempted += 1
        start = time.perf_counter()
        with lt.span("store.rebalance"):
            report = state.system.rebalance(total_rate=RATE)
        wall = time.perf_counter() - start
        phase.add("repartitioned_files", report.n_repartitioned)
        phase.add("moved_bytes", report.moved_bytes)
        # Redundancy-free: the workers hold exactly the users' bytes.
        ratio = stored_per_user_byte(state)
        if ratio != 1.0:
            phase.failed += 1
            phase.checks.append(
                Check("redundancy_free", False, f"{ratio!r} B stored per user B")
            )
        return wall


class ECStoreWorkload(StoreWorkload):
    """(10, 14) Reed-Solomon files on LRU workers smaller than the coded set."""

    k, n = 10, 14
    cache_share = 0.5  # worker capacity over the initial coded working set

    def setup(self, seed: int, scale: float, workdir: Path, lt=UNTRACED):
        ops = self._op_stream(seed, scale)
        n_files = len(ops.order)
        n_workers = EC2_CLUSTER.n_servers
        coded = n_files * ops.file_bytes * self.n / self.k
        start = time.perf_counter()
        master = Master(n_workers, seed=0)
        workers = [
            Worker(i, capacity=self.cache_share * coded / n_workers)
            for i in range(n_workers)
        ]
        client = StoreClient(
            master, workers, under_store=UnderStore(), lineage=LineageGraph(), seed=0
        )
        busy = time.perf_counter() - start
        state = StoreState(
            ops=ops,
            workers=workers,
            client=client,
            window_ops=_scaled(self.window_ops, scale, 100),
        )
        for fid in range(n_files):
            data = ops.payload(fid)
            start = time.perf_counter()
            self._write(state, fid, data)
            busy += time.perf_counter() - start
        return state, busy

    def _read(self, state: StoreState, fid: int) -> bytes:
        return state.client.read(fid)

    def _write(self, state: StoreState, fid: int, data: bytes) -> None:
        # Write-through: every file is persisted, so an evicted file is
        # recovered from the under-store.
        state.client.write_ec(fid, data, k=self.k, n=self.n)
        state.client.under_store.checkpoint(fid, data)

    def _after_op(self, state: StoreState, phase: Phase) -> None:
        for w in state.workers:
            if w.used_bytes > w.capacity:
                phase.failed += 1
                phase.checks.append(
                    Check(
                        "capacity",
                        False,
                        f"worker {w.worker_id} holds {w.used_bytes:.0f} B "
                        f"> {w.capacity:.0f} B",
                    )
                )


WORKLOADS = {
    "sim-ps-fig13": SimWorkload(
        "sim-ps-fig13",
        discipline="ps",
        batch_size=None,
        observers=True,
        # What run_all's fig13 simulates per scheme at each rate.
        n_requests=DEFAULTS.requests(),
        window_seconds=7.0,
    ),
    "sim-fifo-batched": SimWorkload(
        "sim-fifo-batched",
        discipline="fifo",
        batch_size=DEFAULT_BATCH_SIZE,
        observers=False,
        n_requests=3 * DEFAULT_BATCH_SIZE,
        window_seconds=1.3,
        parity_prefix=2000,
    ),
    "store-sp-rw": SPStoreWorkload(
        "store-sp-rw",
        n_files=400,
        file_kib=512,
        write_every=50,
        window_ops=2500,
        warmup_ops=500,
        window_seconds=1.0,
    ),
    "store-ec-evict": ECStoreWorkload(
        "store-ec-evict",
        n_files=200,
        file_kib=512,
        write_every=10,
        window_ops=250,
        warmup_ops=100,
        window_seconds=1.5,
    ),
}
