"""GF(2^8) finite-field arithmetic with table-driven NumPy kernels.

The field is generated by the primitive polynomial ``x^8 + x^4 + x^3 + x^2
+ 1`` (0x11d), the conventional choice for storage Reed-Solomon codes.
Element-wise multiplication and division are log/antilog table lookups,
which vectorize to NumPy fancy indexing.  The bulk coding kernel,
:meth:`GF256.matmul`, packs up to 8 output rows into the bytes of one
machine word, so one gather through a table of packed products scales an
input row by up to 8 coefficients at once.  ISA-L gets its speed from
SIMD table shuffles across a vector of input bytes; here the lanes of a
word carry several output rows through each NumPy gather instead.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GF256"]

_PRIMITIVE_POLY = 0x11D
_FIELD_SIZE = 256
_ORDER = _FIELD_SIZE - 1  # multiplicative group order

#: Shard columns :meth:`GF256.matmul` processes at a time.  A block's
#: temporaries are its ``intp`` index row and, per group of output rows,
#: a packed accumulator and gather target (up to 8 bytes a column each),
#: so the block bounds them on wide shards.  On 51 KiB and 10 MiB shards
#: ``1 << 14`` and ``1 << 16`` were no faster; narrower blocks pay more
#: per-call overhead.
MATMUL_BLOCK = 1 << 15

#: Output rows one packed word holds: a ``uint64`` has 8 one-byte lanes.
_MAX_LANES = 8


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Build exp/log tables for the generator element 2."""
    exp = np.zeros(2 * _ORDER, dtype=np.uint8)
    log = np.zeros(_FIELD_SIZE, dtype=np.int64)
    x = 1
    for i in range(_ORDER):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= _PRIMITIVE_POLY
    # Duplicate the cycle so (log a + log b) indexes without a modulo.
    exp[_ORDER : 2 * _ORDER] = exp[:_ORDER]
    return exp, log


def _build_mul_table(exp: np.ndarray, log: np.ndarray) -> np.ndarray:
    """Full 256x256 product table (64 KB) for single-gather row scaling."""
    a = np.arange(256, dtype=np.int64)
    table = exp[log[a][:, None] + log[a][None, :]].astype(np.uint8)
    table[0, :] = 0
    table[:, 0] = 0
    return table


class GF256:
    """Namespace of vectorized GF(2^8) operations.

    The element-wise entry points accept scalars or uint8-compatible
    arrays and broadcast like the corresponding NumPy ufuncs.  Addition is
    XOR; zero divisors raise ``ZeroDivisionError``.

    :data:`MUL` is the full 256x256 product table: ``MUL[c]`` is the
    multiply-by-``c`` permutation.  :meth:`matmul` builds its packed lane
    tables from its rows, so a product pays no log/exp lookups per byte;
    the shard-wide work is one gather and one XOR per input row and group
    of up to 8 output rows.
    """

    EXP, LOG = _build_tables()
    MUL = None  # populated right after class creation (needs EXP/LOG)

    @staticmethod
    def add(a, b) -> np.ndarray:
        return np.bitwise_xor(
            np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8)
        )

    # Subtraction equals addition in characteristic 2.
    sub = add

    @classmethod
    def mul(cls, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.uint8)
        b = np.asarray(b, dtype=np.uint8)
        out = cls.EXP[cls.LOG[a] + cls.LOG[b]]
        # log[0] is a dummy 0; force products with zero to zero.
        zero = (a == 0) | (b == 0)
        return np.where(zero, np.uint8(0), out)

    @classmethod
    def inv(cls, a) -> np.ndarray:
        a = np.asarray(a, dtype=np.uint8)
        if np.any(a == 0):
            raise ZeroDivisionError("0 has no inverse in GF(256)")
        return cls.EXP[_ORDER - cls.LOG[a]]

    @classmethod
    def div(cls, a, b) -> np.ndarray:
        a = np.asarray(a, dtype=np.uint8)
        b = np.asarray(b, dtype=np.uint8)
        if np.any(b == 0):
            raise ZeroDivisionError("division by zero in GF(256)")
        out = cls.EXP[cls.LOG[a] - cls.LOG[b] + _ORDER]
        return np.where(a == 0, np.uint8(0), out)

    @classmethod
    def pow(cls, a, e: int) -> np.ndarray:
        """``a ** e`` with integer exponent (e >= 0, or any e for a != 0)."""
        a = np.asarray(a, dtype=np.uint8)
        if e == 0:
            return np.ones_like(a)
        if np.any(a == 0) and e < 0:
            raise ZeroDivisionError("0 has no negative power in GF(256)")
        logs = (cls.LOG[a] * e) % _ORDER
        out = cls.EXP[logs]
        return np.where(a == 0, np.uint8(0), out)

    @classmethod
    def matmul(cls, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """GF(256) matrix product ``a @ b``, one gather per input row per
        group of up to 8 output rows.

        ``a`` is ``(m, k)``, ``b`` is ``(k, n)``.  The output rows are
        taken in groups of up to 8.  A group of ``g`` rows gets words of
        ``lanes`` bytes (1, 2, 4 or 8, the smallest that holds ``g``), one
        byte a row.  For input row ``j`` the group has a 256-entry table
        whose entry ``x`` packs ``a[i, j] * x`` for every row ``i`` of the
        group, so one gather through it scales row ``j`` by all of the
        group's coefficients at once, and one XOR adds the result into the
        group's packed accumulator.  An ``m``-row product costs
        ``ceil(m / 8) * k`` gathers, whatever the shard width.  A table
        is built as ``(k, 256, lanes)`` bytes viewed as ``uint{8*lanes}``,
        and the accumulator is viewed back as bytes to de-interleave it
        into the group's rows, so byte order never matters.

        The width is walked in :data:`MATMUL_BLOCK` columns, so no
        temporary exceeds one block of words.  In each block an input row
        is cast to ``intp`` once and shared by every group's gather (a
        ``uint8`` index would be re-cast inside each one), and the first
        input row's gather writes the accumulator directly.
        """
        a = np.asarray(a, dtype=np.uint8)
        b = np.asarray(b, dtype=np.uint8)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
        m, k = a.shape
        width = b.shape[1]
        out = np.zeros((m, width), dtype=np.uint8)
        if k == 0:
            return out
        block = min(width, MATMUL_BLOCK)
        # Per group: its output rows, its packed tables, and an accumulator
        # and a gather target of one block.
        groups = []
        for lo in range(0, m, _MAX_LANES):
            rows = a[lo : lo + _MAX_LANES]
            g = rows.shape[0]
            lanes = 1 << (g - 1).bit_length()
            word = np.dtype(f"u{lanes}")
            table = np.zeros((k, _FIELD_SIZE, lanes), dtype=np.uint8)
            table[:, :, :g] = cls.MUL[rows.T].transpose(0, 2, 1)
            groups.append((
                out[lo : lo + g],
                table.view(word).reshape(k, _FIELD_SIZE),
                np.empty(block, dtype=word),
                np.empty(block, dtype=word),
            ))
        idx = np.empty(block, dtype=np.intp)
        for start in range(0, width, MATMUL_BLOCK):
            stop = min(start + MATMUL_BLOCK, width)
            cols = stop - start
            ix = idx[:cols]
            for j in range(k):
                ix[...] = b[j, start:stop]
                for _, tables, acc, tmp in groups:
                    # Indices are bytes, always in range: "clip" only skips
                    # the buffered copy "raise" makes of ``out``.
                    if j == 0:
                        tables[j].take(ix, out=acc[:cols], mode="clip")
                    else:
                        t = tables[j].take(ix, out=tmp[:cols], mode="clip")
                        np.bitwise_xor(acc[:cols], t, out=acc[:cols])
            for dst, _, acc, _ in groups:
                by_lane = acc[:cols].view(np.uint8).reshape(cols, -1)
                dst[:, start:stop] = by_lane[:, : dst.shape[0]].T
        return out

    @classmethod
    def mat_inv(cls, m: np.ndarray) -> np.ndarray:
        """Invert a square GF(256) matrix by Gauss-Jordan elimination.

        Raises ``np.linalg.LinAlgError`` if singular.
        """
        m = np.asarray(m, dtype=np.uint8)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        n = m.shape[0]
        aug = np.concatenate([m.copy(), np.eye(n, dtype=np.uint8)], axis=1)
        for col in range(n):
            pivots = np.nonzero(aug[col:, col])[0]
            if pivots.size == 0:
                raise np.linalg.LinAlgError("singular matrix over GF(256)")
            pivot = col + int(pivots[0])
            if pivot != col:
                aug[[col, pivot]] = aug[[pivot, col]]
            aug[col] = cls.div(aug[col], aug[col, col])
            # Eliminate the column from every other row in one vector op.
            factors = aug[:, col].copy()
            factors[col] = 0
            aug ^= cls.mul(factors[:, None], aug[col][None, :])
        return aug[:, n:].copy()

    @classmethod
    def vandermonde(cls, rows: int, cols: int) -> np.ndarray:
        """``rows x cols`` Vandermonde matrix with evaluation points 0..rows-1.

        Any ``cols`` rows are linearly independent when evaluation points are
        distinct, which holds for ``rows <= 256``.
        """
        if rows > _FIELD_SIZE:
            raise ValueError("at most 256 distinct evaluation points in GF(256)")
        points = np.arange(rows, dtype=np.uint8)
        out = np.empty((rows, cols), dtype=np.uint8)
        out[:, 0] = 1
        for j in range(1, cols):
            out[:, j] = cls.mul(out[:, j - 1], points)
        return out


GF256.MUL = _build_mul_table(GF256.EXP, GF256.LOG)
