"""Exact solver for the Eq. (9) inner minimisation.

The fork-join bound of Xiang et al. [45] upper-bounds the mean of a maximum
of queue sojourn times:

    T_hat = min_z  z + sum_s 1/2 (E_s - z)
                     + sum_s 1/2 sqrt((E_s - z)^2 + V_s)

with ``E_s = E[Q_s]`` and ``V_s = Var[Q_s]``.  The objective is convex in
``z`` (each sqrt term is a hyperbola branch), so the paper hands it to
CVXPY; we instead solve the monotone first-order condition

    f'(z) = 1 - m/2 + 1/2 sum_s (z - E_s) / sqrt((z - E_s)^2 + V_s) = 0

by bisection, which is exact, dependency-free, and vectorizes across many
files at once (the scale-factor search evaluates the bound for every file
at every candidate alpha).

Files of different fan-out widths share one solve: row ``i`` of a padded
``(batch, max m)`` matrix holds file ``i``'s ``m_i`` queues in its first
``m_i`` columns, and a ``(batch, max m)`` column mask drops the padding
from the derivative, the objective, the bracket (min, max, spread) and the
finiteness test.  Each row's root is its own file's; only the stop rule is
shared (the bisection runs until every row has converged).  On equal-width
input the mask is all-true and the arithmetic is that of an unpadded solve.

Special case ``m = 1``: ``f'(z) -> 0^+`` as ``z -> -inf`` and the infimum is
the limit value ``E_1`` — the bound degenerates to the single queue's mean
sojourn time, as it should.
"""

from __future__ import annotations

import numpy as np

__all__ = ["fork_join_upper_bound", "fork_join_upper_bound_batch"]

_TOL = 1e-12
_MAX_ITER = 200


def _objective(
    z: np.ndarray, means: np.ndarray, variances: np.ndarray, mask: np.ndarray
) -> np.ndarray:
    """Eq. (9) objective; ``z`` has shape (batch, 1), stats (batch, m)."""
    diff = means - z
    return (
        z[..., 0]
        + 0.5 * np.where(mask, diff, 0.0).sum(axis=-1)
        + 0.5 * np.where(mask, np.sqrt(diff**2 + variances), 0.0).sum(axis=-1)
    )


def _derivative(
    z: np.ndarray,
    means: np.ndarray,
    variances: np.ndarray,
    mask: np.ndarray,
    widths: np.ndarray,
) -> np.ndarray:
    diff = z - means
    # diff == 0 with zero variance is the kink of |z - E|; its
    # subgradient midpoint 0 keeps the bisection consistent.
    with np.errstate(invalid="ignore"):
        terms = np.where(
            mask & ~((diff == 0) & (variances == 0)),
            diff / np.sqrt(diff**2 + variances),
            0.0,
        )
    return 1.0 - 0.5 * widths + 0.5 * terms.sum(axis=-1)


def fork_join_upper_bound_batch(
    means: np.ndarray,
    variances: np.ndarray,
    widths: np.ndarray | None = None,
) -> np.ndarray:
    """Eq. (9) bound for a batch of files.

    Parameters
    ----------
    means, variances:
        Arrays of shape ``(batch, m)``: per-server sojourn mean/variance for
        each file's partition reads.  Non-finite entries (unstable queues)
        make that file's bound ``inf``.
    widths:
        Optional per-row fan-out widths ``1 <= m_i <= m``: row ``i`` uses
        only its first ``m_i`` columns and the rest is ignored padding.
        ``None`` means every row uses all ``m`` columns.

    Returns
    -------
    Array of shape ``(batch,)`` with the minimized bound per file.
    """
    means = np.atleast_2d(np.asarray(means, dtype=np.float64))
    variances = np.atleast_2d(np.asarray(variances, dtype=np.float64))
    if means.shape != variances.shape:
        raise ValueError("means and variances must have the same shape")
    batch, m = means.shape
    if batch and m < 1:
        raise ValueError("every row needs at least one queue")
    if widths is None:
        widths = np.full(batch, m, dtype=np.int64)
        mask = np.ones((batch, m), dtype=bool)
    else:
        widths = np.asarray(widths)
        if widths.shape != (batch,):
            raise ValueError("widths must have one entry per row")
        if not np.issubdtype(widths.dtype, np.integer):
            raise ValueError("widths must be integers")
        if batch and (widths.min() < 1 or widths.max() > m):
            raise ValueError(f"widths must lie in [1, {m}]")
        widths = widths.astype(np.int64)
        mask = np.arange(m) < widths[:, None]
    if np.any(mask & (variances < 0)):
        raise ValueError("variances must be non-negative")
    out = np.full(batch, np.inf)
    finite = (np.isfinite(means) | ~mask).all(axis=1) & (
        np.isfinite(variances) | ~mask
    ).all(axis=1)

    # One queue: the bound is that queue's mean sojourn time.
    single = finite & (widths == 1)
    out[single] = means[single, 0]
    solve = finite & (widths > 1)
    if not solve.any():
        return out
    keep = mask[solve]
    # Zeroed padding stays finite through every masked-out float op.
    mu = np.where(keep, means[solve], 0.0)
    var = np.where(keep, variances[solve], 0.0)
    w = widths[solve]

    # Bracket the root of the increasing derivative.  f'(z) < 0 for
    # z <= min E_s - spread and f'(z) > 0 for z >= max E_s + spread once the
    # sqrt terms saturate; widen exponentially until both signs are secured.
    mu_min = np.where(keep, mu, np.inf).min(axis=1)
    mu_max = np.where(keep, mu, -np.inf).max(axis=1)
    spread = np.sqrt(var.max(axis=1)) + (mu_max - mu_min) + 1.0
    lo = mu_min - spread
    hi = mu_max + spread
    for _ in range(80):
        bad = _derivative(lo[:, None], mu, var, keep, w) > 0
        if not bad.any():
            break
        lo[bad] -= spread[bad]
        spread[bad] *= 2
    for _ in range(80):
        bad = _derivative(hi[:, None], mu, var, keep, w) < 0
        if not bad.any():
            break
        hi[bad] += spread[bad]
        spread[bad] *= 2

    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        pos = _derivative(mid[:, None], mu, var, keep, w) > 0
        hi = np.where(pos, mid, hi)
        lo = np.where(pos, lo, mid)
        if np.max(hi - lo) < _TOL * (1.0 + np.max(np.abs(mid))):
            break
    z_star = 0.5 * (lo + hi)
    out[solve] = _objective(z_star[:, None], mu, var, keep)
    return out


def fork_join_upper_bound(means: np.ndarray, variances: np.ndarray) -> float:
    """Eq. (9) bound for a single file's fan-out (1-D inputs)."""
    means = np.asarray(means, dtype=np.float64).reshape(1, -1)
    variances = np.asarray(variances, dtype=np.float64).reshape(1, -1)
    return float(fork_join_upper_bound_batch(means, variances)[0])
