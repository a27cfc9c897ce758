"""The SP-Client: byte-level read/write/repartition against the store.

Implements the data plane of Fig. 9a for all caching schemes so functional
tests can round-trip real bytes:

* plain partitioning (SP-Cache and the partitioning baselines): split into
  ``k`` contiguous partitions on ``k`` distinct workers, reassemble on read;
* erasure coding (EC-Cache): (k, n) Reed-Solomon shards with late binding —
  the client asks ``k + 1`` random shards and decodes from the first ``k``
  that answer;
* selective replication: whole-file copies in distinct replica groups, one
  picked uniformly per read.

Reads record accesses at the master (popularity tracking, Sec. 6.1) and
fall back to the under-store, then lineage recomputation, when blocks were
evicted or a worker crashed (Sec. 8).
"""

from __future__ import annotations

from contextlib import suppress

import numpy as np

import time

from repro.common import make_rng
from repro.ec.codec import RSFileCodec, split_bytes, unsplit_bytes
from repro.obs import events as ev
from repro.obs.causal import causal_span
from repro.obs.metrics import get_registry
from repro.obs.spans import span
from repro.obs.tracing import get_tracer
from repro.store.lineage import FileLostError, LineageGraph
from repro.store.master import FileMeta, Master, PartitionLocation
from repro.store.under_store import UnderStore
from repro.store.worker import BlockNotFound, Worker

__all__ = ["MissingReplicasError", "StoreClient"]


class MissingReplicasError(ValueError):
    """A replicated read found no replica groups in the file's metadata."""

    def __init__(self, file_id: int) -> None:
        super().__init__(f"file {file_id} has no replica groups to read")
        self.file_id = file_id


class StoreClient:
    """Client facade over a master, its workers, and the under-store."""

    def __init__(
        self,
        master: Master,
        workers: list[Worker],
        under_store: UnderStore | None = None,
        lineage: LineageGraph | None = None,
        seed: int | None = 0,
    ) -> None:
        if len(workers) != master.n_workers:
            raise ValueError("one Worker per master slot required")
        self.master = master
        self.workers = workers
        self.under_store = under_store or UnderStore()
        self.lineage = lineage or LineageGraph()
        self._rng = make_rng(seed)
        self._ec_meta: dict[int, tuple[RSFileCodec, int]] = {}  # codec, orig_len
        self.recoveries = 0
        #: Worker ids removed by membership epochs.  Their Worker objects
        #: stay in ``self.workers`` (ids are stable, never recycled) but
        #: reads treat their blocks as gone and recovery re-places them.
        self.removed: set[int] = set()

    # -- membership ----------------------------------------------------------

    def apply_epoch(self, epoch) -> None:
        """Reconcile the data plane with a membership epoch.

        ``epoch`` is an :class:`~repro.cluster.topology.EpochView`: fresh
        stable ids grow the worker list (empty caches, same capacity as
        worker 0), departed ids are drained at the master and marked
        removed here so reads on their blocks fall through to recovery —
        which re-places recovered files onto the *current* epoch.
        """
        max_id = max(epoch.server_ids)
        if max_id >= self.master.n_workers:
            self.master.grow(max_id + 1 - self.master.n_workers)
        capacity = self.workers[0].capacity if self.workers else float("inf")
        while len(self.workers) < self.master.n_workers:
            self.workers.append(Worker(len(self.workers), capacity=capacity))
        active = set(epoch.server_ids)
        self.removed = set(range(self.master.n_workers)) - active
        for wid in range(self.master.n_workers):
            if wid in active:
                self.master.activate_worker(wid)
            else:
                self.master.deactivate_worker(wid)

    # -- writes ------------------------------------------------------------

    def write(
        self,
        file_id: int,
        data: bytes,
        k: int = 1,
        placement: str = "random",
    ) -> FileMeta:
        """Plain-partition write: ``k`` contiguous partitions, no parity."""
        with span("store.write", kind="partitioned"), causal_span(
            "store.put", file_id=file_id, kind="partitioned", k=k
        ):
            worker_ids = self._choose(k, placement)
            parts = split_bytes(data, k)
            locations = []
            for index, (wid, part) in enumerate(zip(worker_ids, parts)):
                self.workers[wid].put_block(file_id, index, part)
                locations.append(PartitionLocation(worker_id=wid, index=index))
            return self.master.register_file(file_id, len(data), locations)

    def write_ec(
        self, file_id: int, data: bytes, k: int = 10, n: int = 14
    ) -> FileMeta:
        """Erasure-coded write: ``n`` Reed-Solomon shards on ``n`` workers."""
        with span("store.write", kind="ec"), causal_span(
            "store.put", file_id=file_id, kind="ec", k=k, n=n
        ):
            codec = RSFileCodec(k=k, n=n)
            shards, orig_len = codec.encode_file(data)
            worker_ids = self._choose(n, "random")
            locations = []
            for index, (wid, shard) in enumerate(zip(worker_ids, shards)):
                self.workers[wid].put_block(file_id, index, shard)
                locations.append(PartitionLocation(worker_id=wid, index=index))
            self._ec_meta[file_id] = (codec, orig_len)
            return self.master.register_file(
                file_id, len(data), locations, ec_k=k, ec_n=n
            )

    def write_replicated(
        self, file_id: int, data: bytes, replicas: int = 1
    ) -> FileMeta:
        """Whole-file copies: ``replicas`` groups on distinct workers each."""
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        with span("store.write", kind="replicated"), causal_span(
            "store.put", file_id=file_id, kind="replicated", replicas=replicas
        ):
            groups: list[list[PartitionLocation]] = []
            flat: list[PartitionLocation] = []
            for r in range(replicas):
                wid = self._choose(1, "random")[0]
                self.workers[wid].put_block(file_id, r, data)
                loc = PartitionLocation(worker_id=wid, index=r)
                groups.append([loc])
                flat.append(loc)
            return self.master.register_file(
                file_id, len(data), flat, replica_groups=groups
            )

    # -- reads -------------------------------------------------------------

    def read(self, file_id: int) -> bytes:
        """Read a file through whichever scheme wrote it."""
        with span("store.read"), causal_span("store.read", file_id=file_id):
            meta = self.master.meta(file_id)
            self.master.record_access(file_id)
            if meta.ec_k is not None:
                return self._read_ec(meta)
            if meta.replica_groups:
                return self._read_replicated(meta)
            return self._read_partitioned(meta)

    def _get_from(self, meta: FileMeta, loc: PartitionLocation) -> bytes:
        """Fetch one block, treating removed workers' blocks as lost."""
        if loc.worker_id in self.removed:
            raise BlockNotFound(loc.worker_id, meta.file_id, loc.index)
        return self.workers[loc.worker_id].get_block(meta.file_id, loc.index)

    def _read_partitioned(self, meta: FileMeta) -> bytes:
        parts: list[bytes] = []
        for loc in sorted(meta.locations, key=lambda l: l.index):
            try:
                parts.append(self._get_from(meta, loc))
            except BlockNotFound:
                return self._recover(meta)
        return unsplit_bytes(parts)

    def _read_ec(self, meta: FileMeta) -> bytes:
        codec, orig_len = self._ec_meta[meta.file_id]
        k = codec.k
        # Late binding: request k + 1 random shards, decode from the first k
        # that actually answer; pull further shards only if too many failed.
        order = self._rng.permutation(len(meta.locations))
        ids: list[int] = []
        shards: list[bytes] = []
        want = min(k + 1, len(order))
        for pos in order:
            loc = meta.locations[pos]
            try:
                shard = self._get_from(meta, loc)
            except BlockNotFound:
                continue
            ids.append(loc.index)
            shards.append(shard)
            if len(ids) >= want and len(ids) >= k:
                break
        if len(ids) < k:
            return self._recover(meta)
        return codec.decode_file(ids[:k], shards[:k], orig_len)

    def _read_replicated(self, meta: FileMeta) -> bytes:
        if not meta.replica_groups:
            raise MissingReplicasError(meta.file_id)
        start = int(self._rng.integers(len(meta.replica_groups)))
        n_groups = len(meta.replica_groups)
        for offset in range(n_groups):
            group = meta.replica_groups[(start + offset) % n_groups]
            loc = group[0]
            try:
                return self._get_from(meta, loc)
            except BlockNotFound:
                continue
        return self._recover(meta)

    # -- recovery (Sec. 8) ---------------------------------------------------

    def _recover(self, meta: FileMeta) -> bytes:
        """Rebuild a file whose cached blocks are gone.

        Order follows Alluxio: persisted copy first, lineage recomputation
        second.  The recovered bytes are re-cached under the file's original
        layout so subsequent reads hit memory again.
        """
        self.recoveries += 1
        get_registry().counter("store.recoveries").inc()

        def read_source(fid: int) -> bytes | None:
            if self.under_store.is_persisted(fid):
                return self.under_store.read(fid)
            if fid != meta.file_id and fid in self.master:
                try:
                    return self.read(fid)
                except FileLostError:
                    return None
            return None

        def lost_server_of(fid: int) -> int | None:
            # Lets the lineage layer raise ServerRemovedError (with the
            # departed worker's id) rather than a bare KeyError.
            if fid in self.master:
                for loc in self.master.meta(fid).locations:
                    if loc.worker_id in self.removed:
                        return loc.worker_id
            return None

        t0 = time.perf_counter()
        with causal_span("store.recover", file_id=meta.file_id):
            data = self.lineage.recover(meta.file_id, read_source, lost_server_of)
            meta = self._recache(meta, data)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                ev.RECOVERY,
                file_id=meta.file_id,
                bytes=len(data),
                wall_s=time.perf_counter() - t0,
            )
        return data

    def _recache(self, meta: FileMeta, data: bytes) -> FileMeta:
        # A recovered file whose layout references departed workers is
        # re-placed onto the current epoch's active workers first.
        if self.removed and any(
            loc.worker_id in self.removed for loc in meta.locations
        ):
            meta = self._replace_lost_locations(meta)
        if meta.ec_k is not None:
            codec, _ = self._ec_meta[meta.file_id]
            shards, _ = codec.encode_file(data)
            for loc in meta.locations:
                self.workers[loc.worker_id].put_block(
                    meta.file_id, loc.index, shards[loc.index]
                )
        elif meta.replica_groups:
            for group in meta.replica_groups:
                for loc in group:
                    self.workers[loc.worker_id].put_block(
                        meta.file_id, loc.index, data
                    )
        else:
            parts = split_bytes(data, len(meta.locations))
            for loc in meta.locations:
                self.workers[loc.worker_id].put_block(
                    meta.file_id, loc.index, parts[loc.index]
                )
        return meta

    def _replace_lost_locations(self, meta: FileMeta) -> FileMeta:
        """Move locations on departed workers to least-loaded active ones.

        Surviving locations stay put; each lost one is re-pointed at a
        distinct active worker not already holding a piece of the file.
        """
        survivors = {
            loc.worker_id
            for loc in meta.locations
            if loc.worker_id not in self.removed
        }
        candidates = [
            w for w in self.master.active_workers if w not in survivors
        ]
        candidates.sort(key=lambda w: (self.master.placed_bytes[w], w))
        fresh = iter(candidates)
        moved: dict[PartitionLocation, PartitionLocation] = {}
        new_locations: list[PartitionLocation] = []
        for loc in meta.locations:
            if loc.worker_id in self.removed:
                try:
                    wid = next(fresh)
                except StopIteration:
                    raise ValueError(
                        f"not enough active workers to re-place file "
                        f"{meta.file_id}"
                    ) from None
                new_loc = PartitionLocation(worker_id=wid, index=loc.index)
                moved[loc] = new_loc
                new_locations.append(new_loc)
            else:
                new_locations.append(loc)
        replica_groups = None
        if meta.replica_groups is not None:
            replica_groups = [
                [moved.get(loc, loc) for loc in group]
                for group in meta.replica_groups
            ]
        return self.master.relocate_file(
            meta.file_id, new_locations, replica_groups=replica_groups
        )

    # -- maintenance ---------------------------------------------------------

    def checkpoint(self, file_id: int) -> None:
        """Persist the current file contents to the under-store."""
        self.under_store.checkpoint(file_id, self.read(file_id))

    def repartition(
        self, file_id: int, new_k: int, placement: str = "least_loaded"
    ) -> FileMeta:
        """Reassemble a plain-partitioned file and re-split it to ``new_k``.

        The data-plane half of Algorithm 2: an SP-Repartitioner collects the
        partitions, re-splits, and redistributes onto the chosen workers.
        """
        meta = self.master.meta(file_id)
        if meta.ec_k is not None or meta.replica_groups:
            raise ValueError("repartition applies to plain-partitioned files")
        with span("store.repartition", new_k=new_k), causal_span(
            "store.repartition", file_id=file_id, new_k=new_k
        ):
            return self._repartition(meta, file_id, new_k, placement)

    def _repartition(
        self, meta: FileMeta, file_id: int, new_k: int, placement: str
    ) -> FileMeta:
        data = self._read_partitioned(meta)
        for loc in meta.locations:
            # A block evicted since the read is already gone — fine here.
            with suppress(BlockNotFound):
                self.workers[loc.worker_id].delete_block(file_id, loc.index)
        worker_ids = self._choose(new_k, placement)
        parts = split_bytes(data, new_k)
        locations = []
        for index, (wid, part) in enumerate(zip(worker_ids, parts)):
            self.workers[wid].put_block(file_id, index, part)
            locations.append(PartitionLocation(worker_id=wid, index=index))
        return self.master.relocate_file(file_id, locations)

    def _choose(self, k: int, placement: str) -> list[int]:
        if placement == "random":
            return self.master.choose_random_workers(k)
        if placement == "least_loaded":
            return self.master.choose_least_loaded_workers(k)
        raise ValueError(f"unknown placement strategy: {placement!r}")
