"""Selective replication baseline [9] (Scarlett-style).

Hot files get extra whole-file replicas; a read is served by one replica
chosen uniformly at random (``floor(u * r)`` of the request's plan
uniform ``u``).  The paper's matched configuration replicates
the top 10 % most popular files 4x, giving the same 40 % memory overhead as
EC-Cache's (10, 14) code.  Writes push every replica through the client NIC
— the scheme's Sec. 7.8 weakness.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.client import ReadBatch, ReadOp, WriteOp
from repro.common import ClusterSpec, FilePopulation
from repro.policies.base import CachePolicy
from repro.workloads.filesets import replication_counts_topk

__all__ = ["SelectiveReplicationPolicy"]


class SelectiveReplicationPolicy(CachePolicy):
    """Popularity-ranked whole-file replication."""

    name = "selective-replication"
    plan_slots = 1

    def __init__(
        self,
        population: FilePopulation,
        cluster: ClusterSpec,
        top_fraction: float = 0.10,
        replicas: int = 4,
        replica_counts: np.ndarray | None = None,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        self._top_fraction = top_fraction
        self._replicas = replicas
        self._replica_counts_arg = replica_counts
        super().__init__(population, cluster, seed=seed)

    def _build_layout(self) -> None:
        if self._replica_counts_arg is not None:
            counts = np.asarray(self._replica_counts_arg, dtype=np.int64)
            if counts.shape != (self.population.n_files,):
                raise ValueError("replica_counts must cover every file")
            if np.any(counts < 1):
                raise ValueError("every file needs at least one replica")
        else:
            counts = replication_counts_topk(
                self.population,
                top_fraction=self._top_fraction,
                replicas=self._replicas,
            )
        if np.any(counts > self.cluster.n_servers):
            raise ValueError("more replicas than servers")
        self.replica_counts = counts
        self.servers_of = self._place_random(counts)
        self.piece_sizes = [
            np.full(int(r), float(size))  # each replica is the whole file
            for r, size in zip(counts, self.population.sizes)
        ]

    def plan_read(self, file_id: int, u: np.ndarray) -> ReadOp:
        """Serve from one uniformly chosen replica.

        ``u < 1`` is a multiple of 2**-53, so ``u * r`` rounds below
        ``r`` for every replica count and the pick stays in range.
        """
        servers = self.servers_of[file_id]
        pick = int(u[0] * servers.size)
        return ReadOp(
            server_ids=servers[pick : pick + 1],
            sizes=self.piece_sizes[file_id][pick : pick + 1],
        )

    def plan_reads(self, file_ids: np.ndarray, u: np.ndarray | None) -> ReadBatch:
        """Batched :meth:`plan_read`: one pick per request over the flat
        replica pool."""
        layout = self.read_layout
        pick = (u[:, 0] * layout.k[file_ids]).astype(np.int64)
        src = layout.off[file_ids] + pick
        return ReadBatch.uniform(
            np.ones(file_ids.size, dtype=np.int64),
            layout.servers[src],
            layout.sizes[src],
        )

    def plan_write(self, file_id: int) -> WriteOp:
        """Push every replica (r x the file's bytes over one NIC)."""
        return WriteOp(sizes=self.piece_sizes[file_id])
