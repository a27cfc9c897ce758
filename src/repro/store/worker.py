"""A cache server's data plane: capacity-bounded in-memory block store.

Blocks are keyed by ``(file_id, partition_index)``.  Eviction is LRU at
block granularity; the master is responsible for noticing dangling metadata
after evictions (mirroring Alluxio, where workers evict autonomously and
the master learns via heartbeats).

Observability: block puts/gets/evictions/misses and crashes feed the
process-wide metrics registry (``store.*`` counters labelled by
``worker_id``) and, when tracing is enabled, emit the ``block_*`` /
``worker_crash`` events of :mod:`repro.obs.events`.  A lookup of an absent
block raises :class:`BlockNotFound` — a :class:`KeyError` subclass, so
existing recovery paths that catch ``KeyError`` keep working — and counts
as a miss.
"""

from __future__ import annotations

from repro.obs import events as ev
from repro.obs.causal import causal_span
from repro.obs.metrics import get_registry, metric_key
from repro.obs.tracing import get_tracer
from repro.store.lru import LRUCache

#: Bucket ladder for block-size histograms: powers of four from 1 KiB to
#: 1 GiB (the default seconds-scale ladder would funnel every block into
#: the overflow bucket).
BLOCK_BYTES_BUCKETS: tuple[float, ...] = tuple(
    float(1024 * 4**i) for i in range(11)
)

__all__ = ["BlockNotFound", "Worker"]

BlockKey = tuple[int, int]


class BlockNotFound(KeyError):
    """A requested block is absent from this worker (evicted, lost, or
    never written).  Subclasses ``KeyError`` for backward compatibility."""

    def __init__(self, worker_id: int, file_id: int, index: int) -> None:
        super().__init__((file_id, index))
        self.worker_id = worker_id
        self.file_id = file_id
        self.index = index

    def __str__(self) -> str:
        return (
            f"worker {self.worker_id} holds no block "
            f"({self.file_id}, {self.index})"
        )


class Worker:
    """One cache server holding partition blocks in memory."""

    def __init__(self, worker_id: int, capacity: float = float("inf")) -> None:
        self.worker_id = worker_id
        self._blocks: dict[BlockKey, bytes] = {}
        self._lru: LRUCache | None = None
        if capacity != float("inf"):
            self._lru = LRUCache(capacity, on_evict=self._drop)
        self.capacity = capacity
        self.bytes_served = 0
        self.evicted_blocks: list[BlockKey] = []
        # Keys of the per-block metrics, resolved per call against the
        # live registry (which tests and benchmarks swap and reset).
        self._served_key = metric_key("store.bytes_served", worker_id=worker_id)
        self._stored_key = metric_key("store.bytes_stored", worker_id=worker_id)
        self._get_bytes_key = metric_key(
            "store.block_bytes", op="get", worker_id=worker_id
        )
        self._put_bytes_key = metric_key(
            "store.block_bytes", op="put", worker_id=worker_id
        )

    def _drop(self, key: BlockKey, _size: float) -> None:
        with causal_span(
            "worker.evict", worker_id=self.worker_id, file_id=key[0]
        ):
            self._blocks.pop(key, None)
            self.evicted_blocks.append(key)
            get_registry().counter(
                "store.block_evictions", worker_id=self.worker_id
            ).inc()
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    ev.BLOCK_EVICT,
                    worker_id=self.worker_id,
                    file_id=key[0],
                    index=key[1],
                )

    def _miss(self, op: str, file_id: int, index: int) -> BlockNotFound:
        get_registry().counter(
            "store.block_misses", worker_id=self.worker_id, op=op
        ).inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                ev.BLOCK_MISS,
                worker_id=self.worker_id,
                file_id=file_id,
                index=index,
                op=op,
            )
        return BlockNotFound(self.worker_id, file_id, index)

    def __contains__(self, key: BlockKey) -> bool:
        return key in self._blocks

    @property
    def n_blocks(self) -> int:
        return len(self._blocks)

    @property
    def used_bytes(self) -> float:
        if self._lru is not None:
            return self._lru.used_bytes
        return float(sum(len(b) for b in self._blocks.values()))

    def put_block(self, file_id: int, index: int, data: bytes) -> list[BlockKey]:
        """Store a block; returns keys evicted to make room."""
        with causal_span(
            "worker.write",
            worker_id=self.worker_id,
            file_id=file_id,
            index=index,
            bytes=len(data),
        ):
            return self._put_block(file_id, index, data)

    def _put_block(
        self, file_id: int, index: int, data: bytes
    ) -> list[BlockKey]:
        key = (file_id, index)
        self._blocks[key] = bytes(data)
        reg = get_registry()
        reg.counter_at(self._stored_key).inc(len(data))
        # Block-size distribution per op (deterministic byte sizes, so
        # identical seeded runs diff clean) — the write-path scrape
        # surface for the OpenMetrics export.
        reg.histogram_at(self._put_bytes_key, BLOCK_BYTES_BUCKETS).observe(
            len(data)
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                ev.BLOCK_PUT,
                worker_id=self.worker_id,
                file_id=file_id,
                index=index,
                bytes=len(data),
            )
        if self._lru is not None:
            before = len(self.evicted_blocks)
            self._lru.put(key, len(data))
            return self.evicted_blocks[before:]
        return []

    def get_block(self, file_id: int, index: int) -> bytes:
        """Fetch a block; raises :class:`BlockNotFound` when absent
        (evicted/lost) and counts the miss in the metrics registry."""
        with causal_span(
            "worker.read",
            worker_id=self.worker_id,
            file_id=file_id,
            index=index,
        ):
            return self._get_block(file_id, index)

    def _get_block(self, file_id: int, index: int) -> bytes:
        key = (file_id, index)
        data = self._blocks.get(key)
        if data is None:
            raise self._miss("get", file_id, index)
        if self._lru is not None:
            self._lru.touch(key)
        self.bytes_served += len(data)
        reg = get_registry()
        reg.counter_at(self._served_key).inc(len(data))
        reg.histogram_at(self._get_bytes_key, BLOCK_BYTES_BUCKETS).observe(
            len(data)
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                ev.BLOCK_GET,
                worker_id=self.worker_id,
                file_id=file_id,
                index=index,
                bytes=len(data),
            )
        return data

    def delete_block(self, file_id: int, index: int) -> None:
        """Drop a block; raises :class:`BlockNotFound` when absent."""
        key = (file_id, index)
        if self._blocks.pop(key, None) is None:
            raise self._miss("delete", file_id, index)
        if self._lru is not None and key in self._lru:
            self._lru.remove(key)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                ev.BLOCK_DELETE,
                worker_id=self.worker_id,
                file_id=file_id,
                index=index,
            )

    def delete_file(self, file_id: int) -> int:
        """Drop every block of ``file_id``; returns how many were dropped."""
        keys = [k for k in self._blocks if k[0] == file_id]
        for k in keys:
            self.delete_block(*k)
        return len(keys)

    def crash(self) -> None:
        """Lose all in-memory state (worker failure in the Sec. 8 scenario)."""
        lost = len(self._blocks)
        self._blocks.clear()
        if self._lru is not None:
            self._lru = LRUCache(self.capacity, on_evict=self._drop)
        get_registry().counter(
            "store.worker_crashes", worker_id=self.worker_id
        ).inc()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                ev.WORKER_CRASH, worker_id=self.worker_id, lost_blocks=lost
            )
