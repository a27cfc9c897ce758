"""Reference oracle for the Reed-Solomon byte path (tests only).

These are the GF(256) product and the Reed-Solomon decode that
:mod:`repro.ec.galois` and :mod:`repro.ec.reed_solomon` replaced, kept as
they were:

* :func:`matmul` walks the ``m x k`` coefficient grid and adds one
  ``MUL[c][b[j]]`` gather per nonzero term over the whole shard width
  (skipping ``c == 0``, a plain XOR for ``c == 1``);
* :func:`decode` inverts the generator rows of the first ``k`` shards and
  multiplies the whole ``k x k`` inverse by them, unless the shards are
  exactly ``0..k-1`` in order.

Both are slow but obviously faithful to the algebra, so the property tests
in ``test_galois.py`` and ``test_reed_solomon.py`` compare the production
kernels against them byte for byte.  The oracle shares only the field
tables and the Gauss-Jordan inverse with production.
"""

from __future__ import annotations

import numpy as np

from repro.ec.galois import GF256
from repro.ec.reed_solomon import ReedSolomon

__all__ = ["decode", "matmul"]


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """GF(256) ``a @ b``, one full-width gather per nonzero term."""
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    m, k = a.shape
    out = np.zeros((m, b.shape[1]), dtype=np.uint8)
    for i in range(m):
        acc = out[i]
        for j in range(k):
            c = int(a[i, j])
            if c == 0:
                continue
            if c == 1:
                np.bitwise_xor(acc, b[j], out=acc)
            else:
                np.bitwise_xor(acc, GF256.MUL[c][b[j]], out=acc)
    return out


def decode(rs: ReedSolomon, shard_ids, shards: np.ndarray) -> np.ndarray:
    """The ``(k, width)`` data block from the first ``k`` shards, by the
    full inverse product."""
    use_ids = np.asarray(shard_ids, dtype=np.int64)[: rs.k]
    use_shards = np.asarray(shards, dtype=np.uint8)[: rs.k]
    if np.array_equal(use_ids, np.arange(rs.k)):
        return use_shards.copy()
    inv = GF256.mat_inv(rs.generator[use_ids])
    return matmul(inv, use_shards)
