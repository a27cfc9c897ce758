"""The SP-Master: file metadata, popularity tracking, placement bookkeeping.

Per Sec. 6.4, the master stores, per file, the partition count ``k_i`` and
the list of servers holding each partition; it also counts accesses so the
periodic repartition can recompute popularities (reads update the counter,
Sec. 6.1).  Placement helpers implement both strategies the paper uses:
random distinct servers (initial writes, Sec. 5.1) and greedy least-loaded
(repartition, Algorithm 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.common import make_rng, validate_server_count
from repro.obs import events as ev

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.obs.popularity import PopularityMonitor
from repro.obs.causal import causal_span
from repro.obs.metrics import get_registry, metric_key
from repro.obs.tracing import get_tracer

__all__ = ["PartitionLocation", "FileMeta", "Master"]

#: Key of the per-read access counter, built once (see :func:`metric_key`).
_READS_KEY = metric_key("master.reads")


@dataclass(frozen=True)
class PartitionLocation:
    """Where one partition lives: worker id + block index within the file."""

    worker_id: int
    index: int


@dataclass
class FileMeta:
    """Master-side metadata for one cached file."""

    file_id: int
    size: int  # bytes of the original file
    locations: list[PartitionLocation] = field(default_factory=list)
    access_count: int = 0
    # Erasure-coding parameters if the file is EC-cached (EC-Cache baseline):
    ec_k: int | None = None
    ec_n: int | None = None
    # Replica groups if the file is replicated: each inner list holds the
    # locations of one complete copy.
    replica_groups: list[list[PartitionLocation]] | None = None

    @property
    def k(self) -> int:
        """Partition count (data partitions only for EC files)."""
        if self.ec_k is not None:
            return self.ec_k
        if self.replica_groups:
            return len(self.replica_groups[0])
        return len(self.locations)

    @property
    def worker_ids(self) -> list[int]:
        return [loc.worker_id for loc in self.locations]


class Master:
    """Metadata service for the byte-level store."""

    def __init__(
        self,
        n_workers: int,
        seed: int | None = 0,
        popularity: "PopularityMonitor | None" = None,
    ) -> None:
        self.n_workers = validate_server_count(n_workers, what="n_workers")
        self._files: dict[int, FileMeta] = {}
        self._rng = make_rng(seed)
        # Bytes of partitions placed per worker — the "load" Algorithm 2's
        # greedy placement balances.
        self.placed_bytes = np.zeros(self.n_workers)
        # Worker ids drained out of the cluster (membership epochs).
        # Slots are never recycled: ``n_workers`` is the id *space*, and
        # placement draws only from ids not in this set.
        self._inactive: set[int] = set()
        # Optional streaming popularity monitor fed by record_access —
        # the sketched twin of the exact access-count window.
        self.popularity = popularity

    def attach_popularity(self, monitor: "PopularityMonitor") -> None:
        """Feed every subsequent read into ``monitor`` (sketched counts)."""
        self.popularity = monitor

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._files

    @property
    def n_files(self) -> int:
        return len(self._files)

    def meta(self, file_id: int) -> FileMeta:
        with causal_span("master.lookup", file_id=file_id):
            return self._files[file_id]

    def files(self) -> list[FileMeta]:
        return list(self._files.values())

    # -- membership --------------------------------------------------------

    @property
    def n_active(self) -> int:
        """Workers currently serving (id space minus drained ids)."""
        return self.n_workers - len(self._inactive)

    @property
    def active_workers(self) -> list[int]:
        """Sorted ids of the workers placement may target."""
        return [w for w in range(self.n_workers) if w not in self._inactive]

    def is_active(self, worker_id: int) -> bool:
        return 0 <= worker_id < self.n_workers and worker_id not in self._inactive

    def grow(self, n: int = 1) -> list[int]:
        """Extend the id space by ``n`` fresh workers; returns their ids.

        Ids are never recycled, so the new ids continue past every id
        ever issued — matching :class:`~repro.cluster.topology.ClusterTopology`'s
        stable-id convention.
        """
        if n < 1:
            raise ValueError("grow needs n >= 1")
        new_ids = list(range(self.n_workers, self.n_workers + n))
        self.n_workers += n
        self.placed_bytes = np.concatenate([self.placed_bytes, np.zeros(n)])
        return new_ids

    def deactivate_worker(self, worker_id: int) -> None:
        """Drain a worker out of placement (membership remove)."""
        if not 0 <= worker_id < self.n_workers:
            raise ValueError(f"unknown worker id {worker_id}")
        if self.n_active <= 1 and worker_id not in self._inactive:
            raise ValueError("cannot deactivate the last active worker")
        self._inactive.add(worker_id)

    def activate_worker(self, worker_id: int) -> None:
        """Return a drained worker to placement (membership re-add)."""
        if not 0 <= worker_id < self.n_workers:
            raise ValueError(f"unknown worker id {worker_id}")
        self._inactive.discard(worker_id)

    # -- placement ---------------------------------------------------------

    def choose_random_workers(self, k: int) -> list[int]:
        """``k`` distinct random active workers (initial placement, Sec. 5.1)."""
        if k > self.n_active:
            raise ValueError(
                f"cannot place {k} partitions on {self.n_active} workers "
                "without co-locating"
            )
        with causal_span("master.place", strategy="random", k=k):
            if not self._inactive:
                # Fast path, and the exact draw order of the fixed-topology
                # code — seeded runs stay byte-identical.
                return list(
                    self._rng.choice(self.n_workers, size=k, replace=False)
                )
            active = np.asarray(self.active_workers, dtype=np.int64)
            picks = self._rng.choice(active.size, size=k, replace=False)
            return [int(active[p]) for p in picks]

    def choose_least_loaded_workers(self, k: int) -> list[int]:
        """``k`` distinct least-loaded active workers (Algorithm 2)."""
        if k > self.n_active:
            raise ValueError(
                f"cannot place {k} partitions on {self.n_active} workers"
            )
        with causal_span("master.place", strategy="least_loaded", k=k):
            if not self._inactive:
                return list(np.argsort(self.placed_bytes, kind="stable")[:k])
            loads = self.placed_bytes.copy()
            loads[sorted(self._inactive)] = np.inf
            return list(np.argsort(loads, kind="stable")[:k])

    # -- registration ------------------------------------------------------

    def register_file(
        self,
        file_id: int,
        size: int,
        locations: list[PartitionLocation],
        ec_k: int | None = None,
        ec_n: int | None = None,
        replica_groups: list[list[PartitionLocation]] | None = None,
    ) -> FileMeta:
        """Record a newly written file and account its placed bytes."""
        if file_id in self._files:
            raise ValueError(f"file {file_id} already registered")
        meta = FileMeta(
            file_id=file_id,
            size=size,
            locations=list(locations),
            ec_k=ec_k,
            ec_n=ec_n,
            replica_groups=replica_groups,
        )
        self._files[file_id] = meta
        per_loc = size / max(len(locations), 1)
        if replica_groups:
            per_loc = size / max(len(replica_groups[0]), 1)
        for loc in meta.locations:
            self.placed_bytes[loc.worker_id] += per_loc
        reg = get_registry()
        reg.counter("master.files_registered").inc()
        reg.counter("master.bytes_registered").inc(size)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                ev.FILE_REGISTER,
                file_id=file_id,
                bytes=size,
                k=meta.k,
                workers=meta.worker_ids,
            )
        return meta

    def unregister_file(self, file_id: int) -> FileMeta:
        meta = self._files.pop(file_id)
        per_loc = meta.size / max(len(meta.locations), 1)
        if meta.replica_groups:
            per_loc = meta.size / max(len(meta.replica_groups[0]), 1)
        for loc in meta.locations:
            self.placed_bytes[loc.worker_id] -= per_loc
        get_registry().counter("master.files_unregistered").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(ev.FILE_UNREGISTER, file_id=file_id, bytes=meta.size)
        return meta

    def relocate_file(
        self,
        file_id: int,
        locations: list[PartitionLocation],
        replica_groups: list[list[PartitionLocation]] | None = None,
    ) -> FileMeta:
        """Replace a file's partition layout (repartition path).

        The access-count window survives the move — repartitioning a file
        must not erase the popularity evidence that triggered it.  For a
        replicated file whose copies moved (e.g. re-placed off a removed
        worker), pass the rebuilt ``replica_groups``; ``None`` keeps the
        old groups.
        """
        meta = self.unregister_file(file_id)
        new_meta = self.register_file(
            file_id,
            meta.size,
            locations,
            ec_k=meta.ec_k,
            ec_n=meta.ec_n,
            replica_groups=(
                replica_groups
                if replica_groups is not None
                else meta.replica_groups
            ),
        )
        new_meta.access_count = meta.access_count
        get_registry().counter("master.relocations").inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                ev.FILE_RELOCATE,
                file_id=file_id,
                old_k=meta.k,
                new_k=new_meta.k,
                workers=new_meta.worker_ids,
            )
        return new_meta

    # -- popularity --------------------------------------------------------

    def record_access(self, file_id: int) -> None:
        """Bump the access counter (done on every read, Sec. 6.1)."""
        self._files[file_id].access_count += 1
        get_registry().counter_at(_READS_KEY).inc()
        if self.popularity is not None:
            self.popularity.observe(file_id)

    def reset_access_counts(self) -> None:
        """Start a new measurement window (after each repartition round)."""
        for meta in self._files.values():
            meta.access_count = 0

    def popularity_snapshot(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(file_ids, sizes, popularities) from the access-count window.

        Files never accessed in the window share the residual minimum mass
        (one virtual access each) so that popularities stay a valid
        probability vector for the scale-factor search.
        """
        ids = np.array(sorted(self._files), dtype=np.int64)
        sizes = np.array([self._files[i].size for i in ids], dtype=np.float64)
        counts = np.array(
            [self._files[i].access_count for i in ids], dtype=np.float64
        )
        counts = np.maximum(counts, 1.0)
        return ids, sizes, counts / counts.sum()
