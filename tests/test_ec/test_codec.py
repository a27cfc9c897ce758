"""Byte-level split/unsplit and file-granularity RS codec."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ec.codec import RSFileCodec, pad_to_shards, split_bytes, unsplit_bytes
from repro.ec.reed_solomon import ReedSolomon

from . import rs_oracle


@given(st.binary(max_size=2000), st.integers(min_value=1, max_value=40))
@settings(max_examples=100)
def test_split_unsplit_roundtrip(data, k):
    parts = split_bytes(data, k)
    assert len(parts) == k
    assert unsplit_bytes(parts) == data


@given(st.binary(min_size=1, max_size=2000), st.integers(min_value=1, max_value=40))
@settings(max_examples=100)
def test_split_sizes_differ_by_at_most_one(data, k):
    sizes = [len(p) for p in split_bytes(data, k)]
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == len(data)
    # Longer partitions come first, preserving contiguity.
    assert sizes == sorted(sizes, reverse=True)


def test_split_rejects_bad_k():
    with pytest.raises(ValueError):
        split_bytes(b"abc", 0)


def test_pad_to_shards_shape_and_content():
    shards, orig = pad_to_shards(b"0123456789", 4)
    assert shards.shape == (4, 3)
    assert orig == 10
    flat = shards.reshape(-1)
    assert bytes(flat[:10]) == b"0123456789"
    assert flat[10] == 0 and flat[11] == 0


def test_pad_to_shards_empty():
    shards, orig = pad_to_shards(b"", 3)
    assert shards.shape == (3, 1)
    assert orig == 0


@given(st.binary(max_size=5000))
@settings(max_examples=50, deadline=None)
def test_rs_file_codec_roundtrip(data):
    codec = RSFileCodec(k=4, n=7)
    shards, orig_len = codec.encode_file(data)
    assert len(shards) == 7
    out = codec.decode_file([6, 1, 3, 0], [shards[i] for i in (6, 1, 3, 0)], orig_len)
    assert out == data


@given(
    st.binary(max_size=3000),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=4),
    st.randoms(use_true_random=False),
)
@settings(max_examples=80, deadline=None)
def test_rs_file_codec_matches_block_oracle(data, k, n_parity, rnd):
    """The shards are the block code's rows, and any survivor set in any
    order decodes to the oracle's block with the padding stripped."""
    n = k + n_parity
    codec = RSFileCodec(k=k, n=n)
    shards, orig_len = codec.encode_file(data)
    coded = ReedSolomon(k, n).encode(pad_to_shards(data, k)[0])
    assert shards == [row.tobytes() for row in coded]
    ids = rnd.sample(range(n), rnd.randint(k, n))
    out = codec.decode_file(ids, [shards[i] for i in ids], orig_len)
    block = rs_oracle.decode(ReedSolomon(k, n), ids, coded[ids])
    assert type(out) is bytes
    assert out == block.reshape(-1)[:orig_len].tobytes() == data


def test_rs_file_codec_records_timings():
    codec = RSFileCodec(k=3, n=5)
    shards, orig_len = codec.encode_file(b"x" * 100_000)
    assert codec.last_encode_seconds > 0
    codec.decode_file([4, 2, 1], [shards[i] for i in (4, 2, 1)], orig_len)
    assert codec.last_decode_seconds > 0


def test_rs_file_codec_overhead():
    assert RSFileCodec(k=10, n=14).overhead == pytest.approx(0.4)


def test_rs_file_codec_rejects_mismatched_shards():
    codec = RSFileCodec(k=2, n=4)
    shards, orig_len = codec.encode_file(b"hello world")
    with pytest.raises(ValueError):
        codec.decode_file([0, 1], [shards[0], shards[1][:-1]], orig_len)
    with pytest.raises(ValueError):
        codec.decode_file([], [], orig_len)
