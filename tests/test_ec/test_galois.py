"""GF(256) field axioms and matrix algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.galois import MATMUL_BLOCK, GF256
from . import rs_oracle

bytes_st = st.integers(min_value=0, max_value=255)
nonzero_st = st.integers(min_value=1, max_value=255)


def test_add_is_xor():
    assert GF256.add(0b1010, 0b0110) == 0b1100


def test_add_self_is_zero():
    a = np.arange(256, dtype=np.uint8)
    assert np.all(GF256.add(a, a) == 0)


@given(bytes_st, bytes_st)
def test_mul_commutative(a, b):
    assert GF256.mul(a, b) == GF256.mul(b, a)


@given(bytes_st, bytes_st, bytes_st)
@settings(max_examples=200)
def test_mul_associative(a, b, c):
    assert GF256.mul(GF256.mul(a, b), c) == GF256.mul(a, GF256.mul(b, c))


@given(bytes_st, bytes_st, bytes_st)
@settings(max_examples=200)
def test_distributive(a, b, c):
    left = GF256.mul(a, GF256.add(b, c))
    right = GF256.add(GF256.mul(a, b), GF256.mul(a, c))
    assert left == right


@given(bytes_st)
def test_mul_identity(a):
    assert GF256.mul(a, 1) == a


@given(bytes_st)
def test_mul_zero(a):
    assert GF256.mul(a, 0) == 0


@given(nonzero_st)
def test_inverse(a):
    assert GF256.mul(a, GF256.inv(a)) == 1


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF256.inv(0)


def test_div_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF256.div(5, 0)


@given(bytes_st, nonzero_st)
def test_div_mul_roundtrip(a, b):
    assert GF256.mul(GF256.div(a, b), b) == a


def test_div_of_zero_is_zero():
    assert GF256.div(0, 7) == 0


@given(nonzero_st, st.integers(min_value=0, max_value=10))
def test_pow_matches_repeated_mul(a, e):
    expected = np.uint8(1)
    for _ in range(e):
        expected = GF256.mul(expected, a)
    assert GF256.pow(a, e) == expected


def test_pow_zero_base():
    assert GF256.pow(0, 3) == 0
    assert GF256.pow(0, 0) == 1


def test_mul_vectorized_matches_scalar():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 256, 1000).astype(np.uint8)
    b = rng.integers(0, 256, 1000).astype(np.uint8)
    vec = GF256.mul(a, b)
    for i in range(0, 1000, 97):
        assert vec[i] == GF256.mul(int(a[i]), int(b[i]))


def test_matmul_identity():
    rng = np.random.default_rng(1)
    m = rng.integers(0, 256, (5, 7)).astype(np.uint8)
    eye = np.eye(5, dtype=np.uint8)
    assert np.array_equal(GF256.matmul(eye, m), m)


def _logexp_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Independent reference: every product by the log/exp path of
    :meth:`GF256.mul`, then an XOR reduction over the inner axis (one
    output row at a time, to bound the ``int64`` log temporaries)."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.uint8)
    for i, row in enumerate(a):
        terms = GF256.mul(row[:, None], b)
        out[i] = np.bitwise_xor.reduce(terms, axis=0, dtype=np.uint8)
    return out


#: Shard widths on and around the column-block edges.
matmul_widths = st.sampled_from(
    [0, 1, MATMUL_BLOCK - 1, MATMUL_BLOCK, MATMUL_BLOCK + 1]
) | st.integers(min_value=0, max_value=MATMUL_BLOCK // 2).map(
    lambda h: 2 * MATMUL_BLOCK + 2 * h + 1
)
#: Coefficients that hit the skip (0) and plain-XOR (1) paths often.
coefficients = st.sampled_from([0, 1]) | bytes_st


@given(
    st.integers(min_value=1, max_value=17),
    st.integers(min_value=1, max_value=14),
    matmul_widths,
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_matmul_matches_oracle_and_logexp(m, k, width, data):
    """Up to 17 output rows: every lane width (1, 2, 4 and 8 bytes) and
    products of two and three row groups."""
    a = np.array(
        data.draw(
            st.lists(
                st.lists(coefficients, min_size=k, max_size=k),
                min_size=m,
                max_size=m,
            )
        ),
        dtype=np.uint8,
    )
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    b = np.random.default_rng(seed).integers(0, 256, (k, width), dtype=np.uint8)
    out = GF256.matmul(a, b)
    assert out.dtype == np.uint8 and out.shape == (m, width)
    assert np.array_equal(out, rs_oracle.matmul(a, b))
    assert np.array_equal(out, _logexp_matmul(a, b))


@pytest.mark.parametrize("m", range(1, 18))
def test_matmul_every_row_count_matches_oracle(m):
    """Each row count from 1 to 17 once, whatever the examples above
    drew: a zero column in every group, an all-zero output row, and a
    width that leaves a short last block."""
    rng = np.random.default_rng(m)
    a = rng.choice([0, 1, 2, 255], size=(m, 14)).astype(np.uint8)
    a[:, 3] = 0
    a[m // 2] = 0
    b = rng.integers(0, 256, (14, MATMUL_BLOCK + 3), dtype=np.uint8)
    out = GF256.matmul(a, b)
    assert np.array_equal(out, rs_oracle.matmul(a, b))
    assert np.array_equal(out, _logexp_matmul(a, b))


def test_matmul_reads_strided_input():
    """Column slices and transposes reach the kernel as non-contiguous
    views; the block walk must read them like contiguous rows."""
    rng = np.random.default_rng(3)
    a = rng.integers(0, 256, (6, 3), dtype=np.uint8)[::2]
    b = rng.integers(0, 256, (MATMUL_BLOCK + 7, 6), dtype=np.uint8)[:, ::2].T
    assert not b.flags.c_contiguous
    assert np.array_equal(GF256.matmul(a, b), rs_oracle.matmul(a, b))


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        GF256.matmul(np.zeros((2, 3), np.uint8), np.zeros((4, 2), np.uint8))


def test_mat_inv_roundtrip():
    rng = np.random.default_rng(2)
    for n in (1, 2, 5, 8):
        # Vandermonde blocks are guaranteed invertible.
        m = GF256.vandermonde(n + 3, n)[:n]
        inv = GF256.mat_inv(m)
        assert np.array_equal(
            GF256.matmul(m, inv), np.eye(n, dtype=np.uint8)
        )
        assert np.array_equal(
            GF256.matmul(inv, m), np.eye(n, dtype=np.uint8)
        )
    del rng


def test_mat_inv_singular_raises():
    singular = np.array([[1, 2], [1, 2]], dtype=np.uint8)
    with pytest.raises(np.linalg.LinAlgError):
        GF256.mat_inv(singular)


def test_mat_inv_requires_square():
    with pytest.raises(ValueError):
        GF256.mat_inv(np.zeros((2, 3), np.uint8))


def test_vandermonde_any_k_rows_invertible():
    vand = GF256.vandermonde(8, 4)
    rng = np.random.default_rng(3)
    for _ in range(20):
        rows = rng.choice(8, size=4, replace=False)
        GF256.mat_inv(vand[rows])  # must not raise


def test_vandermonde_too_many_points():
    with pytest.raises(ValueError):
        GF256.vandermonde(257, 4)
