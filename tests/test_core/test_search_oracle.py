"""Algorithm 1's kernels held bit for bit to the reference kernels.

``search_oracle`` keeps the masked Eq. (9) solve and the mask-based
placement growth that the leaner kernels replaced.  The replacements must
do the same float operations and draw the same random stream, so every
comparison here is exact: equal bound arrays, equal placements with equal
dtypes, equal generator states, and equal search trajectories.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.latency_model as latency_model
import repro.core.scale_factor as scale_factor
from repro.core import optimal_scale_factor
from repro.core.convex import fork_join_upper_bound_batch
from repro.core.placement import extend_placement, place_partitions_random

from . import search_oracle
from .test_search_goldens import SEARCHES

_MEAN = st.floats(min_value=1e-3, max_value=100.0)
_VAR = st.floats(min_value=0.0, max_value=100.0)
_FILL = st.sampled_from([0.0, -1.0, 1e300, np.inf, -np.inf, np.nan])


@st.composite
def _batches(draw, max_width=30):
    """A padded ``(means, variances, widths)`` batch of ragged rows.

    Each row is plain, a zero-variance kink (all means equal, all
    variances 0), partly zero-variance, or unstable (one ``inf``); the
    padding past each row's width holds one garbage value.
    """
    n_rows = draw(st.integers(min_value=1, max_value=12))
    width = draw(st.integers(min_value=1, max_value=max_width))
    fill = draw(_FILL)
    means = np.full((n_rows, width), fill)
    variances = np.full((n_rows, width), fill)
    widths = np.empty(n_rows, dtype=np.int64)
    for i in range(n_rows):
        m = draw(st.integers(min_value=1, max_value=width))
        mu = np.array(draw(st.lists(_MEAN, min_size=m, max_size=m)))
        var = np.array(draw(st.lists(_VAR, min_size=m, max_size=m)))
        kind = draw(st.sampled_from(["plain", "kink", "zeros", "inf"]))
        j = draw(st.integers(min_value=0, max_value=m - 1))
        if kind == "kink":
            mu[:] = mu[0]
            var[:] = 0.0
        elif kind == "zeros":
            var[j:] = 0.0
            mu[j:] = mu[0]
        elif kind == "inf":
            (mu if draw(st.booleans()) else var)[j] = np.inf
        means[i, :m] = mu
        variances[i, :m] = var
        widths[i] = m
    return means, variances, widths


@given(_batches())
@settings(max_examples=200, deadline=None)
def test_ragged_solve_is_bit_identical(batch):
    means, variances, widths = batch
    np.testing.assert_array_equal(
        fork_join_upper_bound_batch(means, variances, widths),
        search_oracle.fork_join_upper_bound_batch(means, variances, widths),
    )


# A 1e300 garbage queue overflows both solves' brackets alike.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(_batches())
@settings(max_examples=100, deadline=None)
def test_unpadded_solve_is_bit_identical(batch):
    """Without widths every column is a queue, garbage included: a negative
    variance raises in both, a non-finite entry makes the row infinite in
    both, and a huge one overflows both the same way."""
    means, variances, _ = batch
    try:
        ref = search_oracle.fork_join_upper_bound_batch(means, variances)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            fork_join_upper_bound_batch(means, variances)
        return
    np.testing.assert_array_equal(
        fork_join_upper_bound_batch(means, variances), ref
    )


@given(
    st.integers(min_value=1, max_value=40).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=n),
                    st.integers(min_value=1, max_value=n),
                ),
                min_size=0,
                max_size=40,
            ),
        )
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_placement_growth_is_bit_identical(case, seed):
    """Same arrays, dtypes included, and the generator left in the same
    state."""
    n_servers, pairs = case
    old_ks = np.array([a for a, _ in pairs], dtype=np.int64)
    new_ks = np.array([b for _, b in pairs], dtype=np.int64)
    old = place_partitions_random(old_ks, n_servers, seed=seed)
    rng_ours = np.random.default_rng(seed + 1)
    rng_ref = np.random.default_rng(seed + 1)
    ours = extend_placement(old, new_ks, n_servers, seed=rng_ours)
    ref = search_oracle.extend_placement(old, new_ks, n_servers, seed=rng_ref)
    assert len(ours) == len(ref)
    for a, b in zip(ours, ref):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert rng_ours.bit_generator.state == rng_ref.bit_generator.state


def _trajectory(name: str) -> list[tuple[float, float]]:
    build, cluster, kwargs, seed = SEARCHES[name]
    return optimal_scale_factor(build(), cluster, seed=seed, **kwargs).trajectory


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_search_trajectory_matches_oracle_kernels(name, monkeypatch):
    ours = _trajectory(name)
    monkeypatch.setattr(
        latency_model,
        "fork_join_upper_bound_batch",
        search_oracle.fork_join_upper_bound_batch,
    )
    monkeypatch.setattr(
        scale_factor, "extend_placement", search_oracle.extend_placement
    )
    assert _trajectory(name) == ours
