"""Client-side read/write operations and the planner protocol.

A caching *policy* (``repro.policies``) decides where partitions live and
how a request reads them; the *simulator* only sees the resulting
:class:`ReadOp`: which servers to hit, how many bytes each serves, how many
reads must complete before the join fires (late binding reads ``k + 1`` but
joins on ``k``), and any post-join compute such as erasure decoding.

Planners are discipline-agnostic: the shared request lifecycle
(:class:`repro.cluster.engine.RequestLifecycle`) plans requests in
batches regardless of which registered server discipline (``fifo``,
``ps``, ``limited(c)``, ...) schedules the resulting flows, so one policy
implementation serves every service model.  The batch planner calls
``plan_reads`` once per batch and gets a :class:`ReadBatch`, or, for a
planner that has only ``plan_read``, calls that once per request; both
receive the request's counter-keyed ``PLAN`` uniforms
(:mod:`repro.cluster.engine.draws`), never a generator, so the two agree
plan for plan.  ``footprint`` feeds the cluster-wide LRU when a cache
budget is set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.cluster.network import GoodputModel

__all__ = [
    "ReadBatch",
    "ReadLayout",
    "ReadOp",
    "ReadPlanner",
    "WriteOp",
    "write_latency",
]


@dataclass(frozen=True)
class ReadOp:
    """One file read as a fork-join over cache servers.

    Attributes
    ----------
    server_ids:
        Servers to read from, one partition each.  Duplicates are allowed
        (none of the paper's policies co-locate partitions); each one is
        its own queue entry on that server.
    sizes:
        Bytes served by each read, aligned with ``server_ids``.
    join_count:
        Number of completions required before the file is ready.  Equal to
        ``len(server_ids)`` for plain partitioning; ``k`` with EC-Cache's
        late binding where ``k + 1`` reads are issued.
    post_fraction:
        Extra latency applied after the join as a fraction of the read time
        (EC-Cache's decode overhead, e.g. 0.2 for 20 %).
    post_seconds:
        Extra absolute latency after the join (e.g. a measured decode time).
    """

    server_ids: np.ndarray
    sizes: np.ndarray
    join_count: int = -1  # -1 means "all"
    post_fraction: float = 0.0
    post_seconds: float = 0.0

    def __post_init__(self) -> None:
        server_ids = np.asarray(self.server_ids, dtype=np.int64)
        sizes = np.asarray(self.sizes, dtype=np.float64)
        if server_ids.ndim != 1 or server_ids.size == 0:
            raise ValueError("server_ids must be a non-empty 1-D array")
        if sizes.shape != server_ids.shape:
            raise ValueError("sizes must align with server_ids")
        if np.any(sizes < 0):
            raise ValueError("sizes must be non-negative")
        join = self.join_count if self.join_count != -1 else server_ids.size
        if not 1 <= join <= server_ids.size:
            raise ValueError(
                f"join_count {self.join_count} out of range for "
                f"{server_ids.size} reads"
            )
        if self.post_fraction < 0 or self.post_seconds < 0:
            raise ValueError("post delays must be non-negative")
        object.__setattr__(self, "server_ids", server_ids)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "join_count", join)

    @property
    def parallelism(self) -> int:
        return int(self.server_ids.size)


@dataclass(frozen=True)
class WriteOp:
    """One file write: bytes pushed to servers plus client-side compute.

    ``pre_seconds`` models encoding (EC-Cache) before any byte moves;
    ``sequential`` writes partitions one after another through the client
    NIC (the paper's SP-Cache write mode, Sec. 7.8), while parallel writes
    still share that single NIC and so take the same wire time — the
    distinction matters only for future multi-NIC extensions.
    """

    sizes: np.ndarray
    pre_seconds: float = 0.0
    sequential: bool = True

    def __post_init__(self) -> None:
        sizes = np.asarray(self.sizes, dtype=np.float64)
        if sizes.ndim != 1 or sizes.size == 0:
            raise ValueError("sizes must be a non-empty 1-D array")
        if np.any(sizes < 0):
            raise ValueError("sizes must be non-negative")
        if self.pre_seconds < 0:
            raise ValueError("pre_seconds must be non-negative")
        object.__setattr__(self, "sizes", sizes)

    @property
    def total_bytes(self) -> float:
        return float(self.sizes.sum())

    @property
    def n_connections(self) -> int:
        return int(self.sizes.size)


@dataclass(frozen=True)
class ReadBatch:
    """Read plans for a run of requests, CSR layout.

    Request ``b`` owns flows ``off[b]:off[b + 1]`` (``off`` the exclusive
    cumsum of ``k``) of ``servers``/``sizes``; the per-request fields
    mirror :class:`ReadOp`'s (``join_count`` already resolved, never -1).
    """

    k: np.ndarray
    servers: np.ndarray
    sizes: np.ndarray
    join_count: np.ndarray
    post_fraction: np.ndarray
    post_seconds: np.ndarray

    @staticmethod
    def uniform(
        k: np.ndarray,
        servers: np.ndarray,
        sizes: np.ndarray,
        *,
        join_count: np.ndarray | None = None,
        post_fraction: float = 0.0,
    ) -> "ReadBatch":
        """A batch whose requests share one post-join fraction and no
        absolute post delay; ``join_count=None`` joins on every flow."""
        n = k.size
        return ReadBatch(
            k=k,
            servers=servers,
            sizes=sizes,
            join_count=k if join_count is None else join_count,
            post_fraction=np.full(n, post_fraction),
            post_seconds=np.zeros(n),
        )

    @staticmethod
    def from_ops(ops: list[ReadOp]) -> "ReadBatch":
        """Pack per-request :class:`ReadOp` plans into one batch."""
        if not ops:
            none = np.empty(0, dtype=np.int64)
            return ReadBatch.uniform(none, none, np.empty(0))
        return ReadBatch(
            k=np.array([op.parallelism for op in ops], dtype=np.int64),
            servers=np.concatenate([op.server_ids for op in ops]),
            sizes=np.concatenate([op.sizes for op in ops]),
            join_count=np.array([op.join_count for op in ops], dtype=np.int64),
            post_fraction=np.array([op.post_fraction for op in ops]),
            post_seconds=np.array([op.post_seconds for op in ops]),
        )


class ReadLayout:
    """A per-file ``(servers, piece sizes)`` layout as flat pools.

    Row ``f`` of the layout is pool slice ``off[f]:off[f + 1]``;
    :meth:`gather` turns a batch of file ids into the fetch-everything
    :class:`ReadBatch` with a handful of array ops.
    """

    def __init__(
        self, servers_of: list[np.ndarray], piece_sizes: list[np.ndarray]
    ) -> None:
        servers = [np.asarray(s, dtype=np.int64) for s in servers_of]
        self.k = np.array([s.size for s in servers], dtype=np.int64)
        self.off = np.zeros(self.k.size + 1, dtype=np.int64)
        np.cumsum(self.k, out=self.off[1:])
        self.servers = (
            np.concatenate(servers) if servers else np.empty(0, np.int64)
        )
        self.sizes = (
            np.concatenate([np.asarray(p, dtype=np.float64) for p in piece_sizes])
            if servers
            else np.empty(0)
        )

    def gather(self, file_ids: np.ndarray) -> ReadBatch:
        """Every piece of each file in ``file_ids``, in layout order."""
        k = self.k[file_ids]
        # Flow i of request b reads pool slot off[file] + (i - first[b]).
        shift = np.repeat(self.off[file_ids] - (np.cumsum(k) - k), k)
        src = np.arange(shift.size) + shift
        return ReadBatch.uniform(k, self.servers[src], self.sizes[src])


class ReadPlanner(Protocol):
    """What the simulator requires of a placement policy.

    ``plan_slots`` (default 0 when absent) is how many ``PLAN`` uniforms
    one request's plan reads.  ``plan_reads`` is optional: a planner
    without it is planned through ``plan_read``, one request at a time.
    """

    def plan_read(
        self, file_id: int, u: np.ndarray
    ) -> ReadOp:  # pragma: no cover - protocol
        """Build the fork-join read for one request of ``file_id`` from
        the request's ``plan_slots`` uniforms ``u``."""
        ...

    def plan_reads(
        self, file_ids: np.ndarray, u: np.ndarray | None
    ) -> ReadBatch:  # pragma: no cover - protocol
        """Plan a batch of requests; row ``b`` of ``u`` (shape
        ``(n, plan_slots)``, ``None`` when ``plan_slots`` is 0) is what
        ``plan_read`` would get for request ``b``."""
        ...

    def footprint(self, file_id: int) -> float:  # pragma: no cover - protocol
        """Cached bytes the file occupies (including parity/replicas)."""
        ...


def write_latency(
    op: WriteOp,
    client_bandwidth: float,
    goodput: GoodputModel | None = None,
) -> float:
    """Latency of a write through a single client NIC (Sec. 7.8 model).

    All written bytes traverse the client's NIC, so wire time is
    ``total_bytes / (bandwidth * goodput(n_connections))``; encoding time is
    added up front.  More connections (replicas, chunks, parity shards) cost
    goodput, which is how fixed-size chunking loses to SP-Cache on writes.
    """
    factor = (
        goodput.factor(op.n_connections, client_bandwidth) if goodput else 1.0
    )
    return op.pre_seconds + op.total_bytes / (client_bandwidth * factor)
