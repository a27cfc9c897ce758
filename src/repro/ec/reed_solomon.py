"""Systematic (k, n) Reed-Solomon erasure code over GF(256).

Construction: take the ``n x k`` Vandermonde matrix ``V`` (full column rank
for distinct evaluation points), and right-multiply by the inverse of its
top ``k x k`` block.  The result is a generator matrix whose first ``k``
rows are the identity — shards 0..k-1 are verbatim data (*systematic*), and
shards k..n-1 are parity.  Any ``k`` rows of the generator remain
invertible, so any ``k`` surviving shards reconstruct the data.  The
generator depends only on ``(k, n)``, so it is built once per pair and
shared read-only by every codec.

Decoding is systematic too: a data shard among the survivors *is* its data
row (the inverse of the survivors' generator rows maps it through
unchanged), so it is copied, in whatever order it arrived, and only the
missing data rows are computed, as ``inv[missing] @ survivors``.  A read
that lost ``p`` data shards pays ``p * k`` GF(256) terms instead of
``k * k``, and one that got all ``k`` data shards pays none.  Rebuilding one
lost shard is the single ``k``-term row ``generator[missing] @ inv``.

This mirrors what EC-Cache gets from ISA-L, minus SIMD: encoding cost is
``O((n-k) * k)`` vectorized GF multiplications over the shard width.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.ec.galois import GF256

__all__ = ["ReedSolomon"]


@lru_cache(maxsize=None)
def _generator(k: int, n: int) -> np.ndarray:
    """The read-only ``n x k`` systematic generator of a ``(k, n)`` code."""
    vand = GF256.vandermonde(n, k)
    generator = GF256.matmul(vand, GF256.mat_inv(vand[:k]))
    generator.flags.writeable = False
    return generator


class ReedSolomon:
    """A ``(k, n)`` systematic Reed-Solomon codec for equal-length shards.

    Parameters
    ----------
    k:
        Number of data shards (any ``k`` shards decode).
    n:
        Total shards, ``k <= n <= 256``.
    """

    def __init__(self, k: int, n: int) -> None:
        if not 1 <= k <= n:
            raise ValueError(f"require 1 <= k <= n, got k={k}, n={n}")
        if n > 256:
            raise ValueError("GF(256) supports at most 256 shards")
        self.k = k
        self.n = n
        #: ``n x k`` generator; top block is the identity.  Shared by every
        #: codec with this ``(k, n)``, hence read-only.
        self.generator = _generator(k, n)

    @property
    def n_parity(self) -> int:
        return self.n - self.k

    @property
    def overhead(self) -> float:
        """Memory overhead ``(n - k) / k`` (Sec. 3.2)."""
        return (self.n - self.k) / self.k

    def encode(self, data_shards: np.ndarray) -> np.ndarray:
        """Encode ``(k, width)`` data shards into ``(n, width)`` total shards.

        The first ``k`` output rows are the input rows (systematic); the rest
        are parity.
        """
        data_shards = np.asarray(data_shards, dtype=np.uint8)
        if data_shards.ndim != 2 or data_shards.shape[0] != self.k:
            raise ValueError(
                f"expected (k={self.k}, width) data shards, got {data_shards.shape}"
            )
        parity = GF256.matmul(self.generator[self.k :], data_shards)
        return np.concatenate([data_shards, parity], axis=0)

    def _first_k(
        self, shard_ids: np.ndarray | list[int], shards: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Validate a survivor set and keep its first ``k`` ids and rows."""
        shard_ids = np.asarray(shard_ids, dtype=np.int64)
        shards = np.asarray(shards, dtype=np.uint8)
        if shard_ids.ndim != 1 or shards.ndim != 2:
            raise ValueError("shard_ids must be 1-D and shards 2-D")
        if shard_ids.size != shards.shape[0]:
            raise ValueError("one id per shard row required")
        if shard_ids.size < self.k:
            raise ValueError(
                f"need at least k={self.k} shards, got {shard_ids.size}"
            )
        if np.unique(shard_ids).size != shard_ids.size:
            raise ValueError("duplicate shard ids")
        if np.any(shard_ids < 0) or np.any(shard_ids >= self.n):
            raise ValueError("shard ids out of range")
        return shard_ids[: self.k], shards[: self.k]

    def decode(
        self, shard_ids: np.ndarray | list[int], shards: np.ndarray
    ) -> np.ndarray:
        """Reconstruct the ``(k, width)`` data block from any ``k`` shards.

        Parameters
        ----------
        shard_ids:
            Indices (in ``0..n-1``) of the surviving shards, length >= k,
            in any order.  Extra shards beyond ``k`` are ignored (late
            binding hands us ``k + 1`` reads; we decode from the first
            ``k`` to arrive).
        shards:
            Array of shape ``(len(shard_ids), width)`` with the shard bytes.
        """
        use_ids, use_shards = self._first_k(shard_ids, shards)
        out = np.empty((self.k, use_shards.shape[1]), dtype=np.uint8)
        missing = np.ones(self.k, dtype=bool)
        for row, shard_id in enumerate(use_ids.tolist()):
            if shard_id < self.k:
                out[shard_id] = use_shards[row]
                missing[shard_id] = False
        if not missing.any():
            return out
        inv = GF256.mat_inv(self.generator[use_ids])
        out[missing] = GF256.matmul(inv[missing], use_shards)
        return out

    def reconstruct_shard(
        self,
        missing_id: int,
        shard_ids: np.ndarray | list[int],
        shards: np.ndarray,
    ) -> np.ndarray:
        """Rebuild one lost shard from any ``k`` survivors.

        The shard is ``generator[missing_id] @ data`` and the data is
        ``inv @ survivors``, so one ``k``-term row, ``generator[missing_id]
        @ inv``, rebuilds it without decoding the block — the repair path a
        cache server would run after a worker loss.
        """
        if not 0 <= missing_id < self.n:
            raise ValueError("missing_id out of range")
        use_ids, use_shards = self._first_k(shard_ids, shards)
        inv = GF256.mat_inv(self.generator[use_ids])
        row = GF256.matmul(self.generator[missing_id : missing_id + 1], inv)
        return GF256.matmul(row, use_shards)[0]
