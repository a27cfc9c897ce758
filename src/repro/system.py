"""The assembled SP-Cache system (Fig. 9's architecture, end to end).

:class:`SPCacheSystem` wires the pieces the rest of the library provides
into the deployment the paper describes:

* an **SP-Master** (:class:`repro.store.Master`) holding metadata and
  access counts;
* **cache workers** (:class:`repro.store.Worker`) holding real partition
  bytes with LRU eviction;
* an **SP-Client** facade — :meth:`write` splits per Eq. (1) under the
  current scale factor, :meth:`read` collects partitions, reassembles, and
  bumps popularity;
* **periodic load re-balancing** — :meth:`rebalance` re-estimates
  popularity from the master's access window, re-runs Algorithm 1,
  plans Algorithm 2, and has per-server repartitioners re-split only the
  changed files (greedy least-loaded placement).

This is the byte-level twin of the simulator experiments: the same
algorithms drive actual data movement, so integration tests can assert
both *correctness* (bytes round-trip across rebalances) and *mechanism*
(only changed files move; hot files hold more partitions).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.network import GoodputModel
from repro.common import ClusterSpec, FilePopulation, make_rng
from repro.core.partitioner import partition_counts
from repro.core.repartition import RepartitionPlan, plan_repartition
from repro.core.scale_factor import optimal_scale_factor
from repro.store.lineage import LineageGraph
from repro.store.master import Master
from repro.store.store_client import StoreClient
from repro.store.under_store import UnderStore
from repro.store.worker import Worker

__all__ = ["RebalanceReport", "SPCacheSystem"]


@dataclass(frozen=True)
class RebalanceReport:
    """What one periodic re-balance round did."""

    alpha: float
    n_files: int
    n_repartitioned: int
    moved_bytes: float

    @property
    def repartitioned_fraction(self) -> float:
        return self.n_repartitioned / self.n_files if self.n_files else 0.0


class SPCacheSystem:
    """A running SP-Cache deployment over the byte-level store."""

    def __init__(
        self,
        cluster: ClusterSpec,
        worker_capacity: float = float("inf"),
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        self.cluster = cluster
        self._rng = make_rng(seed)
        self.master = Master(cluster.n_servers, seed=self._rng)
        self.workers = [
            Worker(i, capacity=worker_capacity)
            for i in range(cluster.n_servers)
        ]
        self.client = StoreClient(
            self.master,
            self.workers,
            under_store=UnderStore(),
            lineage=LineageGraph(),
            seed=self._rng,
        )
        #: Current scale factor; set by the first :meth:`rebalance`.
        self.alpha: float | None = None
        self.rebalances = 0

    # -- data plane ---------------------------------------------------------

    def write(self, file_id: int, data: bytes) -> None:
        """Write a new file.

        Per Sec. 6.1, new files land unsplit on one random server (cold
        files dominate); they get partitioned when a re-balance finds them
        hot — unless a scale factor is already configured and the caller
        supplied popularity hints via :meth:`rebalance`.
        """
        self.client.write(file_id, data, k=1, placement="random")

    def read(self, file_id: int) -> bytes:
        """Read a file (records the access at the master)."""
        return self.client.read(file_id)

    def checkpoint(self, file_id: int) -> None:
        self.client.checkpoint(file_id)

    # -- control plane ------------------------------------------------------

    def current_population(self) -> FilePopulation:
        """Popularity snapshot from the master's access-count window."""
        _, sizes, pops = self.master.popularity_snapshot()
        return FilePopulation(sizes=sizes, popularities=pops, total_rate=1.0)

    def partition_counts_now(self) -> np.ndarray:
        ids = sorted(meta.file_id for meta in self.master.files())
        return np.array(
            [len(self.master.meta(i).locations) for i in ids], dtype=np.int64
        )

    def rebalance(
        self, total_rate: float = 1.0, reset_window: bool = True
    ) -> RebalanceReport:
        """One periodic load-balancing round (the 12-hourly job).

        Re-estimates popularity, runs Algorithm 1 (sweep mode over the
        overhead-aware bound), plans Algorithm 2, and physically
        repartitions only the changed files through per-server
        repartitioners (the store moves real bytes).
        """
        if self.master.n_files == 0:
            raise RuntimeError("nothing to rebalance: no files written")
        pop = self.current_population().with_rate(total_rate)
        search = optimal_scale_factor(
            pop,
            self.cluster,
            goodput=GoodputModel(),
            client_cap=True,
            service_distribution="deterministic",
            mode="sweep",
            seed=self._rng,
        )
        self.alpha = search.alpha

        ids = sorted(meta.file_id for meta in self.master.files())
        old_ks = self.partition_counts_now()
        old_servers = [
            np.array(self.master.meta(i).worker_ids, dtype=np.int64)
            for i in ids
        ]
        plan: RepartitionPlan = plan_repartition(
            pop,
            self.cluster,
            old_ks,
            old_servers,
            alpha=self.alpha,
            seed=self._rng,
        )

        moved = 0.0
        for pos in np.nonzero(plan.changed)[0]:
            file_id = ids[pos]
            new_k = int(plan.new_ks[pos])
            meta = self.client.repartition(
                file_id, new_k, placement="least_loaded"
            )
            moved += self.master.meta(file_id).size
            if len(meta.locations) != new_k:
                raise RuntimeError(
                    f"repartitioning file {file_id} left "
                    f"{len(meta.locations)} partitions, expected {new_k}"
                )
        if reset_window:
            self.master.reset_access_counts()
        self.rebalances += 1
        return RebalanceReport(
            alpha=self.alpha,
            n_files=len(ids),
            n_repartitioned=int(plan.changed.sum()),
            moved_bytes=moved,
        )

    # -- introspection --------------------------------------------------------

    def expected_k(self, file_id: int, total_rate: float = 1.0) -> int:
        """Partitions the file would get under the current scale factor."""
        if self.alpha is None:
            raise RuntimeError("no scale factor configured yet")
        pop = self.current_population().with_rate(total_rate)
        ids = sorted(meta.file_id for meta in self.master.files())
        ks = partition_counts(pop, self.alpha, n_servers=self.cluster.n_servers)
        return int(ks[ids.index(file_id)])

    def server_placed_bytes(self) -> np.ndarray:
        return self.master.placed_bytes.copy()
