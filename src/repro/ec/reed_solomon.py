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
unchanged), so it is taken as is, in whatever order it arrived, and only
the missing data rows are computed, as ``inv[missing] @ survivors``
(:meth:`ReedSolomon.data_rows`; the file codec joins those rows straight
into the file's bytes).  Costs below are shard-wide gathers of
:meth:`GF256.matmul`, which takes ``ceil(m / 8) * k`` of them for an
``m``-row product.  A read that lost ``p`` data shards pays
``ceil(p / 8) * k`` gathers instead of the ``k * k`` of a full inverse
product, and one that got all ``k`` data shards pays none.  Rebuilding
one lost shard is the single row ``generator[missing] @ inv``: ``k``
gathers.

The inverse depends only on which shards survived, not on the order they
arrived in, so it is inverted once per ``(k, n, sorted ids)`` and cached
read-only, like the generator (a (10, 14) code has 1001 survivor sets).
Shards in another order take the cached inverse with its columns
permuted to match: ``inv(P @ G) = inv(G) @ P.T``, ``k x k`` bytes moved
instead of ``k`` shards.

This mirrors what EC-Cache gets from ISA-L, with byte lanes of a machine
word in place of SIMD registers: encoding costs ``ceil((n-k) / 8) * k``
gathers over the shard width (``k`` for up to 8 parity shards).
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


@lru_cache(maxsize=4096)
def _survivor_inverse(k: int, n: int, sorted_ids: tuple[int, ...]) -> np.ndarray:
    """The read-only inverse of the generator rows ``sorted_ids``."""
    inv = GF256.mat_inv(_generator(k, n)[list(sorted_ids)])
    inv.flags.writeable = False
    return inv


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

    def parity(self, data_shards: np.ndarray) -> np.ndarray:
        """The ``(n - k, width)`` parity rows of ``(k, width)`` data shards."""
        data_shards = np.asarray(data_shards, dtype=np.uint8)
        if data_shards.ndim != 2 or data_shards.shape[0] != self.k:
            raise ValueError(
                f"expected (k={self.k}, width) data shards, got {data_shards.shape}"
            )
        return GF256.matmul(self.generator[self.k :], data_shards)

    def encode(self, data_shards: np.ndarray) -> np.ndarray:
        """Encode ``(k, width)`` data shards into ``(n, width)`` total shards.

        The first ``k`` output rows are the input rows (systematic); the rest
        are parity.
        """
        data_shards = np.asarray(data_shards, dtype=np.uint8)
        return np.concatenate([data_shards, self.parity(data_shards)], axis=0)

    def _first_k(self, shard_ids: np.ndarray | list[int], shards) -> np.ndarray:
        """Validate a survivor set and keep its first ``k`` ids."""
        shard_ids = np.asarray(shard_ids, dtype=np.int64)
        if shard_ids.ndim != 1:
            raise ValueError("shard_ids must be 1-D")
        if isinstance(shards, np.ndarray) and shards.ndim != 2:
            raise ValueError("shards must be 2-D")
        if shard_ids.size != len(shards):
            raise ValueError("one id per shard row required")
        if shard_ids.size < self.k:
            raise ValueError(
                f"need at least k={self.k} shards, got {shard_ids.size}"
            )
        if np.unique(shard_ids).size != shard_ids.size:
            raise ValueError("duplicate shard ids")
        if np.any(shard_ids < 0) or np.any(shard_ids >= self.n):
            raise ValueError("shard ids out of range")
        return shard_ids[: self.k]

    def _inverse(self, use_ids: np.ndarray) -> np.ndarray:
        """``inv(generator[use_ids])`` from the cached inverse of the same
        set in sorted order, its columns permuted to ``use_ids``' order."""
        order = np.argsort(use_ids)
        inv = _survivor_inverse(self.k, self.n, tuple(use_ids[order].tolist()))
        return inv[:, np.argsort(order)]

    def data_rows(self, shard_ids: np.ndarray | list[int], shards) -> list:
        """The ``k`` data rows, in id order, from any ``k`` or more shards.

        ``shards`` is a ``(len(shard_ids), width)`` array or a sequence of
        equal-length byte strings; only the first ``k`` are used.  A data
        shard among them is returned as given, not copied, and only the
        missing data rows are computed (as arrays), so a caller that joins
        the rows copies each byte once.
        """
        use_ids = self._first_k(shard_ids, shards)
        rows: list = [None] * self.k
        for shard, shard_id in zip(shards, use_ids.tolist()):
            if shard_id < self.k:
                rows[shard_id] = shard
        missing = [i for i, row in enumerate(rows) if row is None]
        if missing:
            if isinstance(shards, np.ndarray):
                survivors = shards[: self.k]
            else:
                survivors = np.stack(
                    [np.frombuffer(s, dtype=np.uint8) for s in shards[: self.k]]
                )
            inv = self._inverse(use_ids)
            for i, row in zip(missing, GF256.matmul(inv[missing], survivors)):
                rows[i] = row
        return rows

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
        shards = np.asarray(shards, dtype=np.uint8)
        return np.stack(self.data_rows(shard_ids, shards))

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
        shards = np.asarray(shards, dtype=np.uint8)
        use_ids = self._first_k(shard_ids, shards)
        inv = self._inverse(use_ids)
        row = GF256.matmul(self.generator[missing_id : missing_id + 1], inv)
        return GF256.matmul(row, shards[: self.k])[0]
