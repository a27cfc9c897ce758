"""Byte-level in-memory store modeled on Alluxio's master/worker/client split.

The simulator (:mod:`repro.cluster`) answers *timing* questions; this
package answers *functional* ones with real bytes: partitions round-trip
through workers, Reed-Solomon parity actually decodes, LRU actually evicts,
and lost partitions are recovered from the under-store via lineage
(Sec. 8's fault-tolerance story).
"""

from repro.store.lineage import (
    FileLostError,
    LineageGraph,
    LineageRecord,
    ServerRemovedError,
)
from repro.store.lru import LRUCache
from repro.store.master import FileMeta, Master, PartitionLocation
from repro.store.store_client import MissingReplicasError, StoreClient
from repro.store.under_store import UnderStore
from repro.store.worker import BlockNotFound, Worker

__all__ = [
    "BlockNotFound",
    "FileLostError",
    "FileMeta",
    "LRUCache",
    "LineageGraph",
    "LineageRecord",
    "Master",
    "MissingReplicasError",
    "PartitionLocation",
    "ServerRemovedError",
    "StoreClient",
    "UnderStore",
    "Worker",
]
