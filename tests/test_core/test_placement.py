"""Placement strategies: distinctness, balance, incremental extension."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import imbalance_factor
from repro.core.placement import (
    extend_placement,
    place_partitions_greedy,
    place_partitions_random,
    placement_server_loads,
)


@given(
    st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=40),
    st.integers(min_value=10, max_value=30),
)
@settings(max_examples=60)
def test_random_placement_distinct_servers(ks, n_servers):
    ks = np.array(ks)
    servers_of = place_partitions_random(ks, n_servers, seed=0)
    for k, servers in zip(ks, servers_of):
        assert servers.size == k
        assert np.unique(servers).size == k
        assert servers.min() >= 0 and servers.max() < n_servers


def test_random_placement_rejects_oversized_k():
    with pytest.raises(ValueError):
        place_partitions_random(np.array([5]), 4)
    with pytest.raises(ValueError):
        place_partitions_random(np.array([0]), 4)


def test_greedy_placement_balances_better_than_random():
    rng = np.random.default_rng(0)
    loads = rng.pareto(1.2, 200) + 0.1
    ks = np.minimum(np.ceil(loads).astype(np.int64), 20)
    greedy = place_partitions_greedy(ks, loads, 20)
    random = place_partitions_random(ks, 20, seed=1)
    eta_greedy = imbalance_factor(placement_server_loads(greedy, loads, 20))
    eta_random = imbalance_factor(placement_server_loads(random, loads, 20))
    assert eta_greedy < eta_random


def test_greedy_respects_distinctness():
    loads = np.array([10.0, 5.0, 1.0])
    ks = np.array([4, 2, 1])
    servers_of = place_partitions_greedy(ks, loads, 5)
    for k, servers in zip(ks, servers_of):
        assert np.unique(servers).size == k


def test_greedy_uses_initial_loads():
    """A pre-loaded server should be avoided."""
    initial = np.array([100.0, 0.0, 0.0])
    servers_of = place_partitions_greedy(
        np.array([2]), np.array([1.0]), 3, initial_server_loads=initial
    )
    assert 0 not in servers_of[0]


def test_extend_placement_grows_without_moving():
    old = place_partitions_random(np.array([2, 1]), 10, seed=0)
    new = extend_placement(old, np.array([5, 1]), 10, seed=1)
    assert np.array_equal(new[0][:2], old[0])  # existing servers kept
    assert np.unique(new[0]).size == 5
    assert np.array_equal(new[1], old[1])


def test_extend_placement_shrinks_by_truncation():
    old = place_partitions_random(np.array([6]), 10, seed=0)
    new = extend_placement(old, np.array([3]), 10, seed=1)
    assert np.array_equal(new[0], old[0][:3])


def test_extend_placement_validation():
    old = place_partitions_random(np.array([2]), 4, seed=0)
    with pytest.raises(ValueError):
        extend_placement(old, np.array([5]), 4)
    with pytest.raises(ValueError):
        extend_placement(old, np.array([1, 1]), 4)
    two = [np.array([0]), np.array([1])]
    with pytest.raises(ValueError, match="file 1 needs at least one"):
        extend_placement(two, np.array([1, 0]), 4)
    with pytest.raises(ValueError, match="file 0 needs at least one"):
        extend_placement(two, np.array([-2, 1]), 4)
    with pytest.raises(ValueError, match=r"file 0 .* outside \[0, 4\)"):
        extend_placement([np.array([0, 7])], np.array([3]), 4)
    # A negative id must not wrap around to server N-1.
    with pytest.raises(ValueError, match=r"file 1 .* outside \[0, 4\)"):
        extend_placement([np.array([2]), np.array([0, -1])], [1, 3], 4)
    # Out-of-range ids are rejected on shrinking files too.
    with pytest.raises(ValueError, match="file 0"):
        extend_placement([np.array([4, 0])], [1], 4)


def _extend_placement_setdiff(servers_of, new_ks, n_servers, seed):
    """The reference growth step: free servers from ``np.setdiff1d``."""
    rng = np.random.default_rng(seed) if isinstance(seed, int) else seed
    out = []
    for old, k in zip(servers_of, np.asarray(new_ks, dtype=np.int64)):
        k = int(k)
        if k <= old.size:
            out.append(old[:k])
            continue
        free = np.setdiff1d(np.arange(n_servers), old, assume_unique=False)
        extra = rng.permutation(free)[: k - old.size]
        out.append(np.concatenate([old, extra]))
    return out


@given(
    st.integers(min_value=1, max_value=40).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=n),
                    st.integers(min_value=1, max_value=n),
                ),
                min_size=1,
                max_size=30,
            ),
        )
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_extend_placement_matches_setdiff_reference(case, seed):
    """Mask-based growth returns the reference's arrays, dtype included,
    and leaves the generator where the reference leaves it."""
    n_servers, pairs = case
    old_ks = np.array([a for a, _ in pairs])
    new_ks = np.array([b for _, b in pairs])
    old = place_partitions_random(old_ks, n_servers, seed=seed)
    rng_ours = np.random.default_rng(seed + 1)
    rng_ref = np.random.default_rng(seed + 1)
    ours = extend_placement(old, new_ks, n_servers, seed=rng_ours)
    ref = _extend_placement_setdiff(old, new_ks, n_servers, seed=rng_ref)
    assert len(ours) == len(ref)
    for a, b in zip(ours, ref):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert rng_ours.random() == rng_ref.random()


def test_server_loads_accounting():
    servers_of = [np.array([0, 1]), np.array([1])]
    loads = np.array([4.0, 3.0])
    out = placement_server_loads(servers_of, loads, 3)
    assert np.allclose(out, [2.0, 5.0, 0.0])


def test_server_loads_alignment_error():
    with pytest.raises(ValueError):
        placement_server_loads([np.array([0])], np.array([1.0, 2.0]), 2)
