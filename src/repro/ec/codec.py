"""Byte-level file codecs: plain splitting and Reed-Solomon shard files.

Two code paths feed on this module:

* the **store** (``repro.store``) moves real bytes through it, giving the
  functional tests something concrete to round-trip;
* Fig. 4's decoding-overhead experiment times :class:`RSFileCodec` on real
  payloads of increasing size.

Plain splitting (:func:`split_bytes` / :func:`unsplit_bytes`) is what
SP-Cache and the partitioning baselines use — no parity, no padding beyond
the last partition.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.ec.reed_solomon import ReedSolomon

__all__ = ["split_bytes", "unsplit_bytes", "pad_to_shards", "RSFileCodec"]


def split_bytes(data: bytes, k: int) -> list[bytes]:
    """Split ``data`` into ``k`` near-equal contiguous partitions.

    The first ``len(data) % k`` partitions are one byte longer, so sizes
    differ by at most one and concatenation order restores the original.
    ``k`` may exceed ``len(data)`` (tiny files), yielding empty partitions.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(data)
    base, extra = divmod(n, k)
    parts: list[bytes] = []
    offset = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        parts.append(data[offset : offset + size])
        offset += size
    return parts


def unsplit_bytes(parts: list[bytes]) -> bytes:
    """Reassemble partitions produced by :func:`split_bytes`."""
    return b"".join(parts)


def pad_to_shards(data: bytes, k: int) -> tuple[np.ndarray, int]:
    """Zero-pad ``data`` to a multiple of ``k`` and reshape to ``(k, width)``.

    Returns the shard matrix and the original length (needed to strip the
    padding after decode).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    orig_len = len(data)
    width = max((orig_len + k - 1) // k, 1)
    buf = np.zeros(k * width, dtype=np.uint8)
    buf[:orig_len] = np.frombuffer(data, dtype=np.uint8)
    return buf.reshape(k, width), orig_len


@dataclass
class RSFileCodec:
    """File-granularity (k, n) Reed-Solomon encode/decode with timing.

    ``encode_file`` produces ``n`` shard byte strings; ``decode_file``
    reconstructs the file from any ``k`` of them.  ``last_encode_seconds`` /
    ``last_decode_seconds`` expose wall-clock cost for the Fig. 4 and
    Fig. 22 experiments.
    """

    k: int = 10
    n: int = 14

    def __post_init__(self) -> None:
        self._rs = ReedSolomon(self.k, self.n)
        self.last_encode_seconds: float = 0.0
        self.last_decode_seconds: float = 0.0

    @property
    def overhead(self) -> float:
        return self._rs.overhead

    def encode_file(self, data: bytes) -> tuple[list[bytes], int]:
        """Return ``n`` shards plus the original length."""
        shards, orig_len = pad_to_shards(data, self.k)
        start = time.perf_counter()
        coded = self._rs.encode(shards)
        self.last_encode_seconds = time.perf_counter() - start
        return [row.tobytes() for row in coded], orig_len

    def decode_file(
        self, shard_ids: list[int], shards: list[bytes], orig_len: int
    ) -> bytes:
        """Reconstruct the original file bytes from >= k shards."""
        if not shards:
            raise ValueError("no shards supplied")
        widths = {len(s) for s in shards}
        if len(widths) != 1:
            raise ValueError("shards must be equal-length")
        mat = np.frombuffer(b"".join(shards), dtype=np.uint8).reshape(
            len(shards), widths.pop()
        )
        start = time.perf_counter()
        data = self._rs.decode(np.asarray(shard_ids), mat)
        self.last_decode_seconds = time.perf_counter() - start
        return data.reshape(-1)[:orig_len].tobytes()
