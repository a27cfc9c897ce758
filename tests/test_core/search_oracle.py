"""Reference Algorithm 1 kernels (test oracle).

Verbatim copies of the masked Eq. (9) solve and the mask-based placement
growth that preceded the leaner kernels in ``repro.core``:

* ``fork_join_upper_bound_batch`` is the padded solve whose derivative
  masks the padding and the zero-variance kinks with ``np.where`` on
  every bisection step;
* ``extend_placement`` builds each growing file's free-server list with
  its own boolean mask and draws it with ``Generator.permutation``.

The property suites in ``test_search_oracle.py`` hold the production
kernels to these bit for bit: equal float arrays, equal placements and
the same generator state after the call.
"""

from __future__ import annotations

import numpy as np

from repro.common import make_rng


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


def extend_placement(
    servers_of: list[np.ndarray],
    new_ks: np.ndarray,
    n_servers: int,
    seed: int | np.random.Generator | None = None,
) -> list[np.ndarray]:
    """Grow/shrink an existing placement to new partition counts.

    Files whose ``k_i`` increased gain partitions on fresh random servers
    (distinct from those they already use); files whose count decreased drop
    their trailing partitions.  Existing partitions never move — this is the
    placement discipline of Algorithm 1's search (one placement drawn up
    front, reused across iterations) and the no-noise property the 1 % stop
    rule relies on.
    """
    new_ks = np.asarray(new_ks, dtype=np.int64)
    if len(servers_of) != new_ks.size:
        raise ValueError("servers_of must align with new_ks")
    if np.any(new_ks > n_servers):
        raise ValueError("k_i may not exceed the server count")
    short = np.flatnonzero(new_ks < 1)
    if short.size:
        raise ValueError(f"file {short[0]} needs at least one partition")
    ids = np.concatenate(servers_of) if servers_of else np.empty(0, np.int64)
    stray = np.flatnonzero((ids < 0) | (ids >= n_servers))
    if stray.size:
        ends = np.cumsum([old.size for old in servers_of])
        i = int(np.searchsorted(ends, stray[0], side="right"))
        raise ValueError(
            f"file {i} holds a server id outside [0, {n_servers})"
        )
    rng = make_rng(seed)
    servers = np.arange(n_servers)
    out: list[np.ndarray] = []
    for old, k in zip(servers_of, new_ks):
        k = int(k)
        if k <= old.size:
            out.append(old[:k])
            continue
        # The free servers, sorted: what setdiff1d(servers, old) returns.
        free = np.ones(n_servers, dtype=bool)
        free[old] = False
        extra = rng.permutation(servers[free])[: k - old.size]
        out.append(np.concatenate([old, extra]))
    return out
