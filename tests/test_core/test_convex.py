"""Eq. (9) solver: correctness against brute force and scipy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from repro.core.convex import fork_join_upper_bound, fork_join_upper_bound_batch

from . import eq9_oracle


def _objective(z, means, variances):
    diff = means - z
    return z + 0.5 * diff.sum() + 0.5 * np.sqrt(diff**2 + variances).sum()


def test_single_queue_bound_is_the_mean():
    assert fork_join_upper_bound([2.5], [4.0]) == pytest.approx(2.5)


def test_zero_variance_bound_is_max_mean():
    """With no variance the max of sojourns is deterministic."""
    means = np.array([1.0, 3.0, 2.0])
    out = fork_join_upper_bound(means, np.zeros(3))
    assert out == pytest.approx(3.0, abs=1e-6)


def test_matches_scipy_brent():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.integers(2, 12)
        means = rng.uniform(0.1, 5.0, m)
        variances = rng.uniform(0.0, 4.0, m)
        ours = fork_join_upper_bound(means, variances)
        ref = minimize_scalar(
            lambda z: _objective(z, means, variances),
            bracket=(means.min() - 10, means.max() + 10),
        )
        assert ours == pytest.approx(ref.fun, rel=1e-6)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.01, max_value=100.0),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        min_size=2,
        max_size=10,
    )
)
@settings(max_examples=100, deadline=None)
def test_bound_at_least_max_mean(queue_stats):
    """E[max] >= max E => the upper bound must be too."""
    means = np.array([m for m, _ in queue_stats])
    variances = np.array([v for _, v in queue_stats])
    out = fork_join_upper_bound(means, variances)
    assert out >= means.max() - 1e-8


@given(
    st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=8)
)
@settings(max_examples=60, deadline=None)
def test_bound_increases_with_variance(means):
    means = np.array(means)
    low = fork_join_upper_bound(means, np.full(means.size, 0.1))
    high = fork_join_upper_bound(means, np.full(means.size, 5.0))
    assert high >= low


def test_batch_matches_scalar():
    rng = np.random.default_rng(1)
    means = rng.uniform(0.1, 3.0, (30, 5))
    variances = rng.uniform(0.0, 2.0, (30, 5))
    batch = fork_join_upper_bound_batch(means, variances)
    for i in range(0, 30, 7):
        assert batch[i] == pytest.approx(
            fork_join_upper_bound(means[i], variances[i])
        )


def test_infinite_stats_give_infinite_bound():
    out = fork_join_upper_bound_batch(
        np.array([[1.0, np.inf], [1.0, 2.0]]),
        np.array([[1.0, 1.0], [1.0, 1.0]]),
    )
    assert np.isinf(out[0])
    assert np.isfinite(out[1])


def test_input_validation():
    with pytest.raises(ValueError):
        fork_join_upper_bound_batch(np.ones((2, 3)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        fork_join_upper_bound_batch(np.ones((1, 2)), -np.ones((1, 2)))


def test_width_validation():
    with pytest.raises(ValueError, match="one entry per row"):
        fork_join_upper_bound_batch(np.ones((2, 3)), np.ones((2, 3)), [3])
    with pytest.raises(ValueError, match=r"\[1, 3\]"):
        fork_join_upper_bound_batch(np.ones((2, 3)), np.ones((2, 3)), [0, 3])
    with pytest.raises(ValueError, match=r"\[1, 3\]"):
        fork_join_upper_bound_batch(np.ones((2, 3)), np.ones((2, 3)), [4, 3])
    with pytest.raises(ValueError, match="integers"):
        fork_join_upper_bound_batch(np.ones((1, 3)), np.ones((1, 3)), [2.0])
    with pytest.raises(ValueError, match="at least one queue"):
        fork_join_upper_bound_batch(np.ones((2, 0)), np.ones((2, 0)))


# -- pinned to the per-width reference solve (tests/test_core/eq9_oracle.py)

_MEAN = st.floats(min_value=1e-3, max_value=100.0)
# Bounded away from 0: a zero-variance queue puts a kink in the objective
# (see the kink rows below), and at a kink the bound's error is linear in
# the bisection's final bracket rather than quadratic.
_VAR = st.floats(min_value=1e-3, max_value=100.0)


@st.composite
def _ragged_rows(draw, max_width=30):
    """Rows of widths 1..max_width, each plain, a zero-variance kink (all
    means equal, all variances 0) or unstable (one ``inf`` entry)."""
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        m = draw(st.integers(min_value=1, max_value=max_width))
        means = draw(st.lists(_MEAN, min_size=m, max_size=m))
        variances = draw(st.lists(_VAR, min_size=m, max_size=m))
        kind = draw(st.sampled_from(["plain", "kink", "inf"]))
        if kind == "kink":
            means = [means[0]] * m
            variances = [0.0] * m
        elif kind == "inf":
            j = draw(st.integers(min_value=0, max_value=m - 1))
            if draw(st.booleans()):
                means[j] = np.inf
            else:
                variances[j] = np.inf
        rows.append((np.array(means), np.array(variances)))
    return rows


def _padded(rows, fill=0.0):
    width = max(mu.size for mu, _ in rows)
    means = np.full((len(rows), width), fill)
    variances = np.full((len(rows), width), fill)
    for i, (mu, var) in enumerate(rows):
        means[i, : mu.size] = mu
        variances[i, : var.size] = var
    return means, variances, np.array([mu.size for mu, _ in rows])


def _oracle(rows):
    """The reference solve: one batch per distinct width."""
    out = np.empty(len(rows))
    widths = np.array([mu.size for mu, _ in rows])
    for width in np.unique(widths):
        which = np.flatnonzero(widths == width)
        out[which] = eq9_oracle.fork_join_upper_bound_batch(
            np.stack([rows[i][0] for i in which]),
            np.stack([rows[i][1] for i in which]),
        )
    return out


@given(_ragged_rows())
@settings(max_examples=150, deadline=None)
def test_padded_solve_matches_per_width_oracle(rows):
    means, variances, widths = _padded(rows)
    ours = fork_join_upper_bound_batch(means, variances, widths)
    ref = _oracle(rows)
    finite = np.isfinite(ref)
    # Both solves stop once every bracket in their batch is narrower than
    # 1e-12 * (1 + max |z|), and 0 < z <= bound for rows of two or more
    # queues; a kink row's error is at most (m - 1) times that width.
    width_tol = 1e-12 * (1 + ours[finite].max(initial=0.0))
    for i, (mu, var) in enumerate(rows):
        if not (np.isfinite(mu).all() and np.isfinite(var).all()):
            assert np.isinf(ours[i]) and np.isinf(ref[i])
        elif mu.size == 1:
            assert ours[i] == ref[i] == mu[0]
        elif not var.any():
            # Zero-variance kinks: the exact bound is the common mean.
            slack = (mu.size - 1) * 2 * width_tol
            assert mu[0] <= ours[i] <= mu[0] + slack
            assert abs(ours[i] - ref[i]) <= slack
        else:
            assert ours[i] == pytest.approx(ref[i], rel=1e-12, abs=0)


@given(_ragged_rows(), st.sampled_from([np.nan, np.inf, -1.0, 1e300]))
@settings(max_examples=60, deadline=None)
def test_padding_is_ignored(rows, fill):
    """Whatever the padding holds, a row's bound depends only on its own
    first ``m_i`` columns."""
    clean = fork_join_upper_bound_batch(*_padded(rows))
    dirty = fork_join_upper_bound_batch(*_padded(rows, fill=fill))
    np.testing.assert_array_equal(clean, dirty)


@given(
    st.integers(min_value=1, max_value=30).flatmap(
        lambda m: st.lists(
            st.tuples(
                st.lists(_MEAN, min_size=m, max_size=m),
                st.lists(_VAR, min_size=m, max_size=m),
            ),
            min_size=1,
            max_size=10,
        )
    )
)
@settings(max_examples=100, deadline=None)
def test_equal_width_batch_is_bit_identical_to_oracle(rows):
    """On equal widths the masked solve does the reference's float ops."""
    means = np.array([mu for mu, _ in rows])
    variances = np.array([var for _, var in rows])
    ref = eq9_oracle.fork_join_upper_bound_batch(means, variances)
    np.testing.assert_array_equal(
        fork_join_upper_bound_batch(means, variances), ref
    )
    widths = np.full(len(rows), means.shape[1])
    np.testing.assert_array_equal(
        fork_join_upper_bound_batch(means, variances, widths), ref
    )
