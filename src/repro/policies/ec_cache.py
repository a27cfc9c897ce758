"""EC-Cache baseline [8]: online erasure coding with late binding.

Every file is split with a uniform (k, n) Reed-Solomon code — the paper's
evaluation uses (10, 14), i.e. 40 % memory overhead, which its sensitivity
study found best.  A read late-binds: it fetches ``k + 1`` randomly chosen
shards of the ``n`` (the first ``k + 1`` of a stable argsort of the
request's ``n`` plan uniforms) and completes when any ``k`` arrive, then
pays the decode.  Decode cost is modeled as a fraction of the read
latency (the paper measures 15-30 % for >= 100 MB files, Fig. 4, and
uses 20 % in its own simulations); writes additionally pay encoding at a configurable
throughput before shipping ``n / k`` times the file's bytes.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.client import ReadBatch, ReadOp, WriteOp
from repro.common import MB, ClusterSpec, FilePopulation

from repro.policies.base import CachePolicy

__all__ = ["ECCachePolicy"]


class ECCachePolicy(CachePolicy):
    """Uniform (k, n) erasure coding with k+1 late-bound reads."""

    name = "ec-cache"

    def __init__(
        self,
        population: FilePopulation,
        cluster: ClusterSpec,
        k: int = 10,
        n: int = 14,
        decode_overhead: float = 0.2,
        encode_throughput: float = 350 * MB,
        late_binding: bool = True,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if not 1 <= k <= n:
            raise ValueError("require 1 <= k <= n")
        if n > cluster.n_servers:
            raise ValueError("n shards need n distinct servers")
        if decode_overhead < 0:
            raise ValueError("decode_overhead must be non-negative")
        if encode_throughput <= 0:
            raise ValueError("encode_throughput must be positive")
        self.k = k
        self.n = n
        self.decode_overhead = decode_overhead
        self.encode_throughput = encode_throughput
        self.late_binding = late_binding
        self.plan_slots = n
        super().__init__(population, cluster, seed=seed)

    def _build_layout(self) -> None:
        counts = np.full(self.population.n_files, self.n, dtype=np.int64)
        self.servers_of = self._place_random(counts)
        # Each of the n shards holds S / k bytes (k data + n-k parity).
        self.piece_sizes = [
            np.full(self.n, size / self.k) for size in self.population.sizes
        ]

    @property
    def fetch(self) -> int:
        """Shards one read fetches: ``k + 1`` with late binding, else ``k``."""
        return min(self.k + 1, self.n) if self.late_binding else self.k

    def plan_read(self, file_id: int, u: np.ndarray) -> ReadOp:
        """Late binding: read ``k + 1`` random shards, join on ``k``."""
        idx = np.argsort(u[: self.n], kind="stable")[: self.fetch]
        return ReadOp(
            server_ids=self.servers_of[file_id][idx],
            sizes=self.piece_sizes[file_id][idx],
            join_count=self.k,
            post_fraction=self.decode_overhead,
        )

    def plan_reads(self, file_ids: np.ndarray, u: np.ndarray | None) -> ReadBatch:
        """Batched :meth:`plan_read`: one row-wise argsort for the batch."""
        fetch = self.fetch
        n = file_ids.size
        idx = np.argsort(u[:, : self.n], axis=1, kind="stable")[:, :fetch]
        # Shard i of file f sits at pool slot off[f] + i.
        layout = self.read_layout
        flat = (layout.off[file_ids][:, None] + idx).ravel()
        return ReadBatch.uniform(
            np.full(n, fetch, dtype=np.int64),
            layout.servers[flat],
            layout.sizes[flat],
            join_count=np.full(n, self.k, dtype=np.int64),
            post_fraction=self.decode_overhead,
        )

    def plan_write(self, file_id: int) -> WriteOp:
        """Encode first, then push all ``n`` shards (``n/k`` x the bytes)."""
        size = float(self.population.sizes[file_id])
        return WriteOp(
            sizes=self.piece_sizes[file_id],
            pre_seconds=size / self.encode_throughput,
        )
