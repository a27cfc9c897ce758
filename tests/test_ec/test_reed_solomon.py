"""Reed-Solomon: any k of n shards reconstruct the data."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.galois import MATMUL_BLOCK, GF256
from repro.ec import reed_solomon
from repro.ec.reed_solomon import ReedSolomon

from . import rs_oracle


def _random_data(k: int, width: int, seed: int = 0) -> np.ndarray:
    return (
        np.random.default_rng(seed).integers(0, 256, (k, width)).astype(np.uint8)
    )


def test_systematic_prefix():
    rs = ReedSolomon(4, 7)
    data = _random_data(4, 50)
    coded = rs.encode(data)
    assert np.array_equal(coded[:4], data)
    assert coded.shape == (7, 50)


def test_decode_from_systematic_shards():
    rs = ReedSolomon(4, 7)
    data = _random_data(4, 33)
    coded = rs.encode(data)
    out = rs.decode(np.arange(4), coded[:4])
    assert np.array_equal(out, data)


def test_decode_from_parity_only():
    rs = ReedSolomon(3, 6)
    data = _random_data(3, 20, seed=1)
    coded = rs.encode(data)
    for ids in ([3, 4, 5], [5, 3, 4], [4, 5, 3, 0]):
        out = rs.decode(ids, coded[ids])
        assert np.array_equal(out, data)
        assert np.array_equal(out, rs_oracle.decode(rs, ids, coded[ids]))


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=64),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_any_k_shards_decode(k, extra_parity, width, pyrandom):
    n = k + extra_parity
    rs = ReedSolomon(k, n)
    data = _random_data(k, width, seed=17)
    coded = rs.encode(data)
    ids = pyrandom.sample(range(n), k)
    assert np.array_equal(rs.decode(ids, coded[ids]), data)


def test_extra_shards_are_ignored():
    rs = ReedSolomon(4, 8)
    data = _random_data(4, 10, seed=2)
    coded = rs.encode(data)
    ids = [7, 2, 5, 0, 3]  # k + 1 shards, late binding style
    assert np.array_equal(rs.decode(ids, coded[ids]), data)


def test_reconstruct_lost_shard():
    rs = ReedSolomon(5, 9)
    data = _random_data(5, 40, seed=3)
    coded = rs.encode(data)
    for missing in (0, 4, 8):
        survivors = [i for i in range(9) if i != missing][:5]
        rebuilt = rs.reconstruct_shard(missing, survivors, coded[survivors])
        assert np.array_equal(rebuilt, coded[missing])


def _pinned_decode(rs: ReedSolomon, ids, shards: np.ndarray) -> np.ndarray:
    out = rs.decode(ids, shards)
    assert out.dtype == np.uint8 and out.shape == (rs.k, shards.shape[1])
    assert np.array_equal(out, rs_oracle.decode(rs, ids, shards))
    return out


def test_wide_round_trip_matches_oracle():
    """A (10, 14) encode, four shards lost, the decode and a rebuild of
    every lost shard, two column blocks and one more column wide: byte
    for byte what the oracle computes."""
    rs = ReedSolomon(10, 14)
    data = _random_data(10, 2 * MATMUL_BLOCK + 1, seed=21)
    coded = rs.encode(data)
    assert np.array_equal(coded[10:], rs_oracle.matmul(rs.generator[10:], data))
    lost = [1, 4, 8, 12]
    ids = [13, 0, 9, 2, 3, 11, 5, 6, 7, 10]
    assert sorted(ids + lost) == list(range(14))
    assert np.array_equal(_pinned_decode(rs, ids, coded[ids]), data)
    for missing in lost:
        rebuilt = rs.reconstruct_shard(missing, ids, coded[ids])
        assert np.array_equal(rebuilt, coded[missing])


@st.composite
def code_and_shards(draw, max_k=10, max_parity=6):
    """A ``(k, n)`` code, a width and ``n`` random shard rows.  The rows
    need not be a codeword: both decoders are linear maps, so they must
    agree on any bytes."""
    k = draw(st.integers(min_value=1, max_value=max_k))
    n = k + draw(st.integers(min_value=0, max_value=max_parity))
    width = draw(st.integers(min_value=0, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rows = np.random.default_rng(seed).integers(0, 256, (n, width), dtype=np.uint8)
    return ReedSolomon(k, n), rows


@given(code_and_shards(), st.randoms(use_true_random=False), st.booleans())
@settings(max_examples=80, deadline=None)
def test_decode_matches_oracle_on_any_subset(case, pyrandom, extra):
    """Random k-subsets in random order (late binding's arrival order),
    optionally with one more shard than needed."""
    rs, rows = case
    ids = pyrandom.sample(range(rs.n), min(rs.k + int(extra), rs.n))
    _pinned_decode(rs, ids, rows[ids])


@given(code_and_shards(max_k=6), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_decode_matches_oracle_on_parity_heavy_sets(case, pyrandom):
    """As many parity shards as the code has, the rest data, shuffled —
    parity-only whenever ``n - k >= k``."""
    rs, rows = case
    parity = list(range(rs.k, rs.n))[: rs.k]
    data = pyrandom.sample(range(rs.k), rs.k - len(parity))
    ids = parity + data
    pyrandom.shuffle(ids)
    _pinned_decode(rs, ids, rows[ids])


@given(code_and_shards(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_decode_matches_oracle_on_permuted_data(case, pyrandom):
    """All ``k`` data shards in any order decode to the rows themselves."""
    rs, rows = case
    ids = pyrandom.sample(range(rs.k), rs.k)
    out = _pinned_decode(rs, ids, rows[ids])
    assert np.array_equal(out, rows[: rs.k])


class _CountingMatmul:
    """Stands in for :meth:`GF256.matmul` and records each call's shapes."""

    def __init__(self) -> None:
        self.calls: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self._matmul = GF256.matmul

    def __call__(self, a, b):
        self.calls.append((np.shape(a), np.shape(b)))
        return self._matmul(a, b)


@pytest.fixture
def counted_matmul(monkeypatch):
    counter = _CountingMatmul()
    monkeypatch.setattr(GF256, "matmul", counter)
    return counter


def test_all_data_read_in_any_order_makes_no_matmul(counted_matmul):
    rs = ReedSolomon(10, 14)
    coded = rs.encode(_random_data(10, 5000, seed=7))
    counted_matmul.calls.clear()
    rng = np.random.default_rng(8)
    for _ in range(5):
        ids = list(rng.permutation(10)) + [int(rng.integers(10, 14))]
        assert np.array_equal(rs.decode(ids, coded[ids]), coded[:10])
    assert counted_matmul.calls == []


def test_decode_multiplies_only_the_missing_rows(counted_matmul):
    """Two data shards lost: one ``2 x k`` product, not ``k x k``."""
    rs = ReedSolomon(10, 14)
    coded = rs.encode(_random_data(10, 5000, seed=9))
    ids = [13, 0, 9, 2, 3, 11, 4, 5, 6, 7]
    counted_matmul.calls.clear()
    assert np.array_equal(rs.decode(ids, coded[ids]), coded[:10])
    assert counted_matmul.calls == [((2, 10), (10, 5000))]


@given(code_and_shards(), st.randoms(use_true_random=False), st.data())
@settings(max_examples=60, deadline=None)
def test_reconstruct_shard_matches_decode_then_encode(case, pyrandom, data):
    rs, rows = case
    missing = data.draw(st.integers(min_value=0, max_value=rs.n - 1))
    ids = pyrandom.sample(range(rs.n), rs.k)
    block = rs_oracle.decode(rs, ids, rows[ids])
    expected = rs_oracle.matmul(rs.generator[missing : missing + 1], block)[0]
    rebuilt = rs.reconstruct_shard(missing, ids, rows[ids])
    assert rebuilt.dtype == np.uint8
    assert np.array_equal(rebuilt, expected)


def test_reconstruct_shard_is_one_k_term_row(counted_matmul):
    rs = ReedSolomon(5, 9)
    coded = rs.encode(_random_data(5, 400, seed=10))
    survivors = [8, 1, 6, 0, 4]
    counted_matmul.calls.clear()
    assert np.array_equal(rs.reconstruct_shard(3, survivors, coded[survivors]), coded[3])
    # The coefficient row (1 x k times k x k), then the one shard-wide row.
    assert counted_matmul.calls == [((1, 5), (5, 5)), ((1, 5), (5, 400))]


def test_cached_inverse_matches_oracle_in_any_order():
    """One survivor set arriving in many orders: the cached inverse,
    permuted to each order, decodes and rebuilds byte for byte as the
    oracle's fresh inversion does."""
    rs = ReedSolomon(10, 14)
    rows = np.random.default_rng(12).integers(0, 256, (14, 257), dtype=np.uint8)
    rng = np.random.default_rng(13)
    for survivors in ([13, 0, 9, 2, 3, 11, 4, 5, 6, 7], list(range(4, 14))):
        for _ in range(8):
            ids = [int(i) for i in rng.permutation(survivors)]
            _pinned_decode(rs, ids, rows[ids])
            block = rs_oracle.decode(rs, ids, rows[ids])
            expected = rs_oracle.matmul(rs.generator[1:2], block)[0]
            assert np.array_equal(rs.reconstruct_shard(1, ids, rows[ids]), expected)


class _CountingInverse:
    """Stands in for :meth:`GF256.mat_inv` and records each inverted matrix."""

    def __init__(self) -> None:
        self.calls: list[bytes] = []
        self._mat_inv = GF256.mat_inv

    def __call__(self, a):
        self.calls.append(np.asarray(a).tobytes())
        return self._mat_inv(a)


def test_one_inversion_per_survivor_set(monkeypatch):
    """Every 10-of-14 survivor set, each read twice in fresh random orders
    through decode and reconstruct_shard: 1000 inversions (the set of all
    data shards needs none), one per set."""
    from itertools import combinations

    rs = ReedSolomon(10, 14)
    counter = _CountingInverse()
    monkeypatch.setattr(GF256, "mat_inv", counter)
    reed_solomon._survivor_inverse.cache_clear()
    rows = np.random.default_rng(14).integers(0, 256, (14, 3), dtype=np.uint8)
    rng = np.random.default_rng(15)
    sets = list(combinations(range(14), 10))
    assert len(sets) == 1001
    for _ in range(2):
        for survivors in sets:
            ids = [int(i) for i in rng.permutation(survivors)]
            rs.decode(ids, rows[ids])
            if survivors != tuple(range(10)):
                rs.reconstruct_shard(survivors[0], ids, rows[ids])
    assert len(counter.calls) == 1000
    assert len(set(counter.calls)) == 1000
    cached = reed_solomon._survivor_inverse(10, 14, tuple(range(4, 14)))
    with pytest.raises(ValueError, match="read-only"):
        cached[0, 0] ^= 1


def test_reconstruct_shard_validates_inputs():
    rs = ReedSolomon(3, 5)
    coded = rs.encode(_random_data(3, 8, seed=11))
    with pytest.raises(ValueError):
        rs.reconstruct_shard(5, [0, 1, 2], coded[:3])
    with pytest.raises(ValueError):
        rs.reconstruct_shard(4, [0, 1], coded[:2])


def test_generator_is_shared_and_read_only():
    a, b = ReedSolomon(10, 14), ReedSolomon(10, 14)
    assert a.generator is b.generator
    assert ReedSolomon(10, 15).generator is not a.generator
    assert np.array_equal(a.generator[:10], np.eye(10, dtype=np.uint8))
    with pytest.raises(ValueError, match="read-only"):
        a.generator[0, 0] = 7
    with pytest.raises(ValueError, match="read-only"):
        a.generator[10:] ^= 1
    assert np.array_equal(a.generator[:10], np.eye(10, dtype=np.uint8))


def test_overhead():
    assert ReedSolomon(10, 14).overhead == pytest.approx(0.4)
    assert ReedSolomon(5, 5).overhead == 0.0


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ReedSolomon(0, 4)
    with pytest.raises(ValueError):
        ReedSolomon(5, 4)
    with pytest.raises(ValueError):
        ReedSolomon(10, 257)


def test_decode_validates_inputs():
    rs = ReedSolomon(3, 5)
    data = _random_data(3, 8, seed=4)
    coded = rs.encode(data)
    with pytest.raises(ValueError):
        rs.decode([0, 1], coded[:2])  # too few shards
    with pytest.raises(ValueError):
        rs.decode([0, 0, 1], coded[[0, 0, 1]])  # duplicate ids
    with pytest.raises(ValueError):
        rs.decode([0, 1, 9], coded[:3])  # id out of range


def test_encode_validates_shape():
    rs = ReedSolomon(3, 5)
    with pytest.raises(ValueError):
        rs.encode(np.zeros((4, 10), dtype=np.uint8))


def test_corrupted_parity_changes_decode():
    """Decoding from a tampered shard must not silently equal the data."""
    rs = ReedSolomon(3, 6)
    data = _random_data(3, 16, seed=5)
    coded = rs.encode(data)
    tampered = coded.copy()
    tampered[4, 0] ^= 0xFF
    out = rs.decode([0, 4, 5], tampered[[0, 4, 5]])
    assert not np.array_equal(out, data)
