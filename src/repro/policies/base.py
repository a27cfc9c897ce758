"""Common machinery for caching policies.

A policy binds a file population to a cluster: it decides, per file, how
many pieces exist, where they live, how a read fans out, and what a write
costs.  The shared base implements everything that follows mechanically
from a per-file ``(servers, piece sizes)`` layout; subclasses override the
layout construction and, where semantics differ (late binding, replica
choice), the read plan.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property

import numpy as np

from repro.cluster.client import ReadBatch, ReadLayout, ReadOp, WriteOp
from repro.cluster.topology import ClusterTopology, as_cluster_spec
from repro.common import ClusterSpec, FilePopulation, make_rng
from repro.core.placement import place_partitions_random, placement_server_loads

__all__ = ["CachePolicy"]


class CachePolicy(ABC):
    """Base class: per-file partition layout plus fork-join read plans."""

    #: Short name used in experiment tables.
    name: str = "base"
    #: ``PLAN`` uniforms one read plan consumes (0: reads are fixed).
    plan_slots: int = 0

    def __init__(
        self,
        population: FilePopulation,
        cluster: ClusterSpec | ClusterTopology,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        self.population = population
        #: Epoch-versioned membership the policy was built against, or
        #: ``None`` when built from a plain spec.  Layouts always target
        #: ``self.cluster`` — the epoch-0 spec — so fixed topologies
        #: reproduce spec-built layouts byte-for-byte; churn experiments
        #: rebuild or re-plan per epoch (``plan_epoch_repartition``).
        self.topology: ClusterTopology | None = (
            cluster if isinstance(cluster, ClusterTopology) else None
        )
        self.cluster = as_cluster_spec(cluster)
        self._rng = make_rng(seed)
        #: servers_of[i]: distinct servers caching file i's pieces.
        self.servers_of: list[np.ndarray] = []
        #: piece_sizes[i]: bytes of each piece, aligned with servers_of[i].
        self.piece_sizes: list[np.ndarray] = []
        self._build_layout()
        if len(self.servers_of) != population.n_files or len(
            self.piece_sizes
        ) != population.n_files:
            raise AssertionError("layout must cover every file")

    # -- layout -------------------------------------------------------------

    @abstractmethod
    def _build_layout(self) -> None:
        """Fill ``servers_of`` and ``piece_sizes`` for every file."""

    def _place_random(self, counts: np.ndarray) -> list[np.ndarray]:
        return place_partitions_random(
            counts, self.cluster.n_servers, seed=self._rng
        )

    # -- protocol used by the simulator --------------------------------------

    def plan_read(self, file_id: int, u: np.ndarray) -> ReadOp:
        """Default read: fetch every piece, join on all of them."""
        del u
        return ReadOp(
            server_ids=self.servers_of[file_id],
            sizes=self.piece_sizes[file_id],
        )

    def plan_reads(self, file_ids: np.ndarray, u: np.ndarray | None) -> ReadBatch:
        """Batched :meth:`plan_read`: gather every piece of each file."""
        del u
        return self.read_layout.gather(file_ids)

    @cached_property
    def read_layout(self) -> ReadLayout:
        """The layout as flat pools, built on first use (layouts are fixed
        once the policy is constructed)."""
        return ReadLayout(self.servers_of, self.piece_sizes)

    def footprint(self, file_id: int) -> float:
        """Cached bytes for the file, including any parity or replicas."""
        return float(self.piece_sizes[file_id].sum())

    # -- write model (Sec. 7.8) ----------------------------------------------

    def plan_write(self, file_id: int) -> WriteOp:
        """Default write: push every piece, no client-side compute."""
        return WriteOp(sizes=self.piece_sizes[file_id])

    # -- accounting -----------------------------------------------------------

    def partition_counts(self) -> np.ndarray:
        return np.array([s.size for s in self.servers_of], dtype=np.int64)

    def total_cached_bytes(self) -> float:
        return float(sum(p.sum() for p in self.piece_sizes))

    def memory_overhead(self) -> float:
        """Redundancy: cached bytes over raw bytes, minus one.

        0.0 for SP-Cache and all redundancy-free schemes; 0.4 for the
        paper's (10, 14) EC-Cache configuration and its 4-replica top-10 %
        selective replication.
        """
        return self.total_cached_bytes() / self.population.total_bytes - 1.0

    def expected_server_loads(self) -> np.ndarray:
        """Per-server expected load ``sum L_i / k_i`` over hosted pieces."""
        return placement_server_loads(
            self.servers_of,
            self.population.loads,
            self.cluster.n_servers,
        )
