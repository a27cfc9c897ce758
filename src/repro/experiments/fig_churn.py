"""fig_churn — elastic membership: ring vs hash-mod vs epoch-aware SP-Cache.

The paper fixes its cluster at 30 servers for every experiment; this one
asks what happens on the autoscaling path it leaves open (ROADMAP item
2).  A diurnal :class:`~repro.cluster.topology.ChurnSchedule` adds and
then drains servers in steps, and three placement strategies ride the
same epoch sequence:

* **hash-mod** — ``server = hash(key) % N`` placement recomputed per
  epoch: nearly every file moves on every membership change;
* **ring** — consistent hashing with virtual nodes
  (:mod:`repro.core.placement.hash_ring`): ~``1/N`` of keys move per
  single-server change, at slightly lumpier balance;
* **sp-cache** — the epoch-aware Algorithm 2 extension
  (:func:`~repro.core.repartition.plan_epoch_repartition`): only files
  forced by a departed server or re-scaled by the new optimum move,
  placed greedily least-loaded.

Per epoch and strategy the table reports bytes moved, the fraction of
single-partition keys whose owner changed, the load-imbalance factor
:math:`\\eta` (Eq. 15), the disruption window (slowest server's transfer
time for the move), and steady-state vs disruption-inflated p99 read
latency from a per-epoch fork-join simulation.  Each strategy publishes
one membership section (per-epoch server sets + bytes moved) into the
schema-v7 manifest, and the topology's ``membership``/``epoch`` events
land in the trace for ``repro dash`` and replay.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import (
    ChurnSchedule,
    ClusterTopology,
    ReadOp,
    SimulationConfig,
    imbalance_factor,
    simulate_reads,
)
from repro.cluster.client import ReadBatch, ReadLayout
from repro.core.placement import (
    hash_mod_assignment,
    place_hash_mod,
    place_on_ring,
    placement_server_loads,
    relocated_fraction,
    ring_assignment,
)
from repro.core.repartition import plan_epoch_repartition
from repro.experiments.config import DEFAULTS
from repro.experiments.registry import experiment
from repro.obs.membership import publish_membership
from repro.obs.tracing import get_tracer
from repro.policies import SPCachePolicy
from repro.workloads import paper_fileset, poisson_trace

__all__ = ["run_fig_churn"]

PAPER = {
    "note": "no paper counterpart: the paper fixes N=30 for every run",
    "ring_moved_keys": "~1/N per single-server change",
    "hash_mod_moved_keys": "~(N-1)/N per single-server change",
    "sp_cache_moves": "only membership-forced and re-scaled files",
}

#: Probe keyspace for the owner-relocation metric (single-partition view).
_N_PROBE_KEYS = 512


class _EpochLayoutPolicy:
    """A frozen per-epoch layout exposed through the ReadPlanner protocol.

    ``servers_of`` holds *dense* indices into the epoch's spec (the
    simulator's server axis); the stable-id layouts the strategies
    produce are mapped through
    :meth:`~repro.cluster.topology.EpochView.to_dense` before building
    one of these.  The :class:`~repro.cluster.engine.batch.BatchPlanner`
    gathers the layout through ``plan_reads`` (a
    :class:`~repro.cluster.client.ReadLayout`); ``plan_read`` is the
    per-request reference.
    """

    def __init__(
        self, name: str, servers_of: list[np.ndarray], sizes: np.ndarray
    ) -> None:
        self.name = name
        self.servers_of = servers_of
        self.piece_sizes = [
            np.full(s.size, size / s.size)
            for s, size in zip(servers_of, sizes)
        ]
        self._layout = ReadLayout(self.servers_of, self.piece_sizes)

    def plan_read(self, file_id: int, u: np.ndarray) -> ReadOp:
        del u
        return ReadOp(
            server_ids=self.servers_of[file_id],
            sizes=self.piece_sizes[file_id],
        )

    def plan_reads(self, file_ids: np.ndarray, u: np.ndarray | None) -> ReadBatch:
        del u
        return self._layout.gather(file_ids)

    def footprint(self, file_id: int) -> float:
        return float(self.piece_sizes[file_id].sum())


def _baseline_move(
    sizes: np.ndarray,
    old_servers: list[np.ndarray],
    new_servers: list[np.ndarray],
    epoch,
    id_space: int,
) -> tuple[float, float]:
    """(moved_bytes, disruption_window_s) for a placement-only strategy.

    Each partition landing on a server that did not already hold a piece
    of the file is pulled over that server's NIC; the window is the
    slowest puller (every server fetches its own arrivals in parallel —
    the same concurrency model as the parallel repartition scheme).
    """
    incoming = np.zeros(id_space)
    for size, old, new in zip(sizes, old_servers, new_servers):
        fresh = np.setdiff1d(new, old, assume_unique=True)
        for sid in fresh:
            incoming[sid] += size / new.size
    bandwidths = np.full(id_space, np.inf)
    bandwidths[list(epoch.server_ids)] = epoch.spec.bandwidths
    window = float((incoming / bandwidths).max()) if id_space else 0.0
    return float(incoming.sum()), window


def _epoch_p99s(
    pop,
    layout_stable: list[np.ndarray],
    epoch,
    moved: np.ndarray,
    window_s: float,
    *,
    scheme: str,
    n_requests: int,
    seed: int,
) -> tuple[float, float]:
    """(steady p99, disruption-inflated p99) for one epoch's layout.

    The steady p99 comes straight from a fork-join simulation of the
    epoch.  The disruption p99 additionally charges every request that
    hits a *moved* file while the move is still in flight (arrival
    before ``window_s``) the remainder of the window — the read blocks
    until its partitions finish landing.
    """
    policy = _EpochLayoutPolicy(
        f"{scheme}@e{epoch.index}",
        [epoch.to_dense(s) for s in layout_stable],
        pop.sizes,
    )
    trace = poisson_trace(pop, n_requests=n_requests, seed=seed)
    result = simulate_reads(
        trace,
        policy,
        epoch.spec,
        SimulationConfig(jitter="deterministic", seed=DEFAULTS.seed_sim),
    )
    skip = int(result.latencies.size * result.config.warmup_fraction)
    steady = result.latencies[skip:]
    extra = np.where(
        moved[result.file_ids] & (result.arrival_times < window_s),
        window_s - result.arrival_times,
        0.0,
    )
    disrupted = (result.latencies + extra)[skip:]
    return (
        float(np.percentile(steady, 99)),
        float(np.percentile(disrupted, 99)),
    )


@experiment(paper=PAPER, timeline=True)
def run_fig_churn(
    scale: float = 1.0,
    n_servers: int = 12,
    amplitude: int = 4,
    steps: int = 2,
    n_files: int = 60,
) -> list[dict]:
    pop = paper_fileset(n_files, size_mb=50, zipf_exponent=1.05, total_rate=10.0)
    # Diurnal swell above the base size, then a same-timestamp
    # replacement of an *original* server (both ops fold into one
    # epoch): the cluster never dips below ``n_servers``, but every
    # strategy has to cope with losing a server that holds data.
    schedule = ChurnSchedule.diurnal(
        t_peak=60.0, t_trough=240.0, amplitude=amplitude, steps=steps
    ).remove_ids(300.0, [2]).add(300.0, 1)
    topology = ClusterTopology(n_servers, schedule)
    topology.emit_events(get_tracer())
    id_space = topology.id_space
    n_requests = max(int(300 * scale), 60)

    # Epoch-0 layout shared by every strategy: SP-Cache's selective
    # partition counts on the initial membership (epoch 0's dense
    # indices coincide with stable ids by construction).
    policy = SPCachePolicy(pop, topology, seed=DEFAULTS.seed_policy)
    ks0 = policy.partition_counts()
    probe_keys = np.arange(_N_PROBE_KEYS)

    rows: list[dict] = []
    sections: dict[str, dict] = {}
    for scheme in ("hash-mod", "ring", "sp-cache"):
        section = topology.membership_section(scheme=scheme)
        sections[scheme] = section
        if scheme == "sp-cache":
            layout = [np.sort(np.asarray(s)) for s in policy.servers_of]
            ks = ks0.copy()
        else:
            ks = np.minimum(ks0, topology.initial.n_servers)
            placer = place_hash_mod if scheme == "hash-mod" else place_on_ring
            layout = placer(ks, topology.initial.server_ids)
        assignment = (
            hash_mod_assignment(probe_keys, topology.initial.server_ids)
            if scheme == "hash-mod"
            else ring_assignment(probe_keys, topology.initial.server_ids)
            if scheme == "ring"
            else None
        )
        for epoch in topology.epochs:
            if epoch.index == 0:
                moved_bytes, window, key_frac = 0.0, 0.0, 0.0
                moved = np.zeros(pop.n_files, dtype=bool)
            elif scheme == "sp-cache":
                plan = plan_epoch_repartition(
                    pop,
                    epoch,
                    ks,
                    layout,
                    alpha=policy.alpha,
                    max_partitions=n_servers,
                    id_space=id_space,
                    seed=DEFAULTS.seed_policy,
                )
                moved_bytes = plan.moved_bytes
                window = plan.disruption_window_s
                moved = plan.changed
                key_frac = plan.changed_fraction
                ks, layout = plan.new_ks, plan.new_servers_of
            else:
                new_ks = np.minimum(ks0, epoch.n_servers)
                new_layout = (
                    place_hash_mod(new_ks, epoch.server_ids)
                    if scheme == "hash-mod"
                    else place_on_ring(new_ks, epoch.server_ids)
                )
                moved_bytes, window = _baseline_move(
                    pop.sizes, layout, new_layout, epoch, id_space
                )
                moved = np.fromiter(
                    (
                        np.setdiff1d(n, o, assume_unique=True).size > 0
                        for o, n in zip(layout, new_layout)
                    ),
                    dtype=bool,
                    count=pop.n_files,
                )
                new_assignment = (
                    hash_mod_assignment(probe_keys, epoch.server_ids)
                    if scheme == "hash-mod"
                    else ring_assignment(probe_keys, epoch.server_ids)
                )
                key_frac = relocated_fraction(assignment, new_assignment)
                assignment = new_assignment
                ks, layout = new_ks, new_layout
            loads = placement_server_loads(
                [epoch.to_dense(s) for s in layout],
                pop.loads,
                epoch.n_servers,
            )
            eta = imbalance_factor(loads)
            p99_steady, p99_disrupted = _epoch_p99s(
                pop,
                layout,
                epoch,
                moved,
                window,
                scheme=scheme,
                n_requests=n_requests,
                seed=DEFAULTS.seed_trace + epoch.index,
            )
            section["epochs"][epoch.index].update(
                moved_bytes=moved_bytes, disruption_window_s=window
            )
            rows.append(
                {
                    "strategy": scheme,
                    "epoch": epoch.index,
                    "n_servers": epoch.n_servers,
                    "added": len(epoch.added),
                    "removed": len(epoch.removed),
                    "moved_mb": moved_bytes / 2**20,
                    "moved_key_frac": key_frac,
                    "eta": eta,
                    "disruption_s": window,
                    "p99_steady_s": p99_steady,
                    "p99_disrupted_s": p99_disrupted,
                }
            )
    for scheme in ("hash-mod", "ring", "sp-cache"):
        publish_membership(sections[scheme])
    return rows
