"""Reference Eq. (9) solve and bound evaluation (test oracle).

Verbatim copies of the per-width implementation that preceded the padded,
masked solve in ``repro.core.convex``: ``fork_join_upper_bound_batch``
solves one batch of equal-width rows, and ``evaluate`` groups a
placement's files by fan-out width and fills each group's rows in a
Python loop, one bisection per distinct width (it is the method's body
as a function of the model, ``evaluate(model, ks, servers_of)``).  The
property suites pin the production solver and ``ForkJoinModel.evaluate``
to these.
"""

from __future__ import annotations

import numpy as np

from repro.core.latency_model import ForkJoinModel, ModelEvaluation

_TOL = 1e-12
_MAX_ITER = 200


def _objective(z: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Eq. (9) objective; ``z`` has shape (batch, 1), stats (batch, m)."""
    diff = means - z
    return (
        z[..., 0]
        + 0.5 * diff.sum(axis=-1)
        + 0.5 * np.sqrt(diff**2 + variances).sum(axis=-1)
    )


def _derivative(z: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    diff = z - means
    m = means.shape[-1]
    # diff == 0 with zero variance is the kink of |z - E|; its
    # subgradient midpoint 0 keeps the bisection consistent.
    with np.errstate(invalid="ignore"):
        terms = np.where(
            (diff == 0) & (variances == 0),
            0.0,
            diff / np.sqrt(diff**2 + variances),
        )
    return 1.0 - 0.5 * m + 0.5 * terms.sum(axis=-1)


def fork_join_upper_bound_batch(
    means: np.ndarray, variances: np.ndarray
) -> np.ndarray:
    """Eq. (9) bound for a batch of files sharing a fan-out width.

    Parameters
    ----------
    means, variances:
        Arrays of shape ``(batch, m)``: per-server sojourn mean/variance for
        each file's ``m`` partition reads.  Non-finite entries (unstable
        queues) make that file's bound ``inf``.

    Returns
    -------
    Array of shape ``(batch,)`` with the minimized bound per file.
    """
    means = np.atleast_2d(np.asarray(means, dtype=np.float64))
    variances = np.atleast_2d(np.asarray(variances, dtype=np.float64))
    if means.shape != variances.shape:
        raise ValueError("means and variances must have the same shape")
    if np.any(variances < 0):
        raise ValueError("variances must be non-negative")
    batch, m = means.shape
    out = np.full(batch, np.inf)
    finite = np.isfinite(means).all(axis=1) & np.isfinite(variances).all(axis=1)
    if not finite.any():
        return out
    mu = means[finite]
    var = variances[finite]

    if m == 1:
        out[finite] = mu[:, 0]
        return out

    # Bracket the root of the increasing derivative.  f'(z) < 0 for
    # z <= min E_s - spread and f'(z) > 0 for z >= max E_s + spread once the
    # sqrt terms saturate; widen exponentially until both signs are secured.
    spread = np.sqrt(var.max(axis=1)) + np.ptp(mu, axis=1) + 1.0
    lo = mu.min(axis=1) - spread
    hi = mu.max(axis=1) + spread
    for _ in range(80):
        bad = _derivative(lo[:, None], mu, var) > 0
        if not bad.any():
            break
        lo[bad] -= spread[bad]
        spread[bad] *= 2
    for _ in range(80):
        bad = _derivative(hi[:, None], mu, var) < 0
        if not bad.any():
            break
        hi[bad] += spread[bad]
        spread[bad] *= 2

    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        pos = _derivative(mid[:, None], mu, var) > 0
        hi = np.where(pos, mid, hi)
        lo = np.where(pos, lo, mid)
        if np.max(hi - lo) < _TOL * (1.0 + np.max(np.abs(mid))):
            break
    z_star = 0.5 * (lo + hi)
    out[finite] = _objective(z_star[:, None], mu, var)
    return out


def evaluate(
    self: ForkJoinModel, ks: np.ndarray, servers_of: list[np.ndarray]
) -> ModelEvaluation:
    """Evaluate the bound for partition counts ``ks`` placed per
    ``servers_of`` (``servers_of[i]`` = distinct servers of file ``i``).
    """
    pop = self.population
    ks = np.asarray(ks, dtype=np.int64)
    if ks.shape != pop.sizes.shape:
        raise ValueError("ks must align with the population")
    if len(servers_of) != pop.n_files:
        raise ValueError("servers_of must have one entry per file")

    lam = pop.rates
    x_part = pop.sizes / ks  # partition bytes per file

    # Flatten the (file, server) incidence once.
    counts = np.array([s.size for s in servers_of])
    if np.any(counts != ks):
        raise ValueError("servers_of entry lengths must equal ks")
    file_idx = np.repeat(np.arange(pop.n_files), counts)
    server_idx = (
        np.concatenate(servers_of) if file_idx.size else np.empty(0, np.int64)
    )
    if server_idx.size and (
        server_idx.min() < 0 or server_idx.max() >= self.cluster.n_servers
    ):
        raise ValueError("server id out of range")

    n_servers = self.cluster.n_servers
    bw = self.cluster.bandwidths

    # Per-(file,server) mean service time x_is = S_i / (k_i * B_s),
    # optionally degraded by the fan-out's goodput factor.  This is the
    # server-side busy time, feeding utilization and wait moments.
    x_is = x_part[file_idx] / bw[server_idx]
    if self.goodput is not None:
        g = self.goodput.factor(ks.astype(np.float64), float(bw.mean()))
        x_is = x_is / np.asarray(g)[file_idx]
    # The tagged read's own transfer may be slower: its k_i streams
    # share the client NIC, so per-stream bandwidth is at most B_c/k_i.
    if self.client_cap:
        stretch = np.maximum(
            bw[server_idx]
            * ks[file_idx]
            / self.cluster.effective_client_bandwidth,
            1.0,
        )
        y_is = x_is * stretch
    else:
        y_is = x_is
    lam_is = lam[file_idx]

    # Eq. (5): Lambda_s; Eqs. (6), (12), (13): service moments.  The
    # base law contributes E[X^j] = c_j * x^j (c = 1, 2, 6 for the
    # paper's exponential transfers; c = 1, 1, 1 for deterministic).
    # Stragglers do NOT appear here: a sleeping thread holds no NIC
    # capacity, so the queue's service moments are straggler-free.
    c2, c3 = (
        (2.0, 6.0)
        if self.service_distribution == "exponential"
        else (1.0, 1.0)
    )
    m1, m2, m3 = self.straggler_moments or (1.0, 1.0, 1.0)
    s1 = x_is
    s2 = c2 * x_is**2
    s3 = c3 * x_is**3
    Lambda = np.bincount(server_idx, weights=lam_is, minlength=n_servers)
    sum_lx1 = np.bincount(server_idx, weights=lam_is * s1, minlength=n_servers)
    sum_lx2 = np.bincount(server_idx, weights=lam_is * s2, minlength=n_servers)
    sum_lx3 = np.bincount(server_idx, weights=lam_is * s3, minlength=n_servers)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = np.where(Lambda > 0, sum_lx1 / Lambda, 0.0)
        gamma2 = np.where(Lambda > 0, sum_lx2 / Lambda, 0.0)
        gamma3 = np.where(Lambda > 0, sum_lx3 / Lambda, 0.0)
    rho = Lambda * mu
    stable = bool(np.all(rho < 1.0))

    # Eqs. (10)-(11): P-K waiting terms, shared by every file on a server.
    with np.errstate(divide="ignore", invalid="ignore"):
        slack = 1.0 - rho
        wait_mean = np.where(slack > 0, Lambda * gamma2 / (2 * slack), np.inf)
        wait_var = np.where(
            slack > 0,
            Lambda * gamma3 / (3 * slack)
            + (Lambda * gamma2) ** 2 / (4 * slack**2),
            np.inf,
        )

    # Sojourn = own reported transfer + queueing wait (independent in
    # M/G/1 FIFO).  The tagged transfer uses the (possibly client-
    # capped) y moments, scaled by the straggler report multiplier:
    # Var = E[(YM)^2] - E[YM]^2 = y^2 * (c2 m2 - m1^2), which is y^2
    # when exponential and straggler-free, recovering Eq. 11's first
    # term.
    t1 = y_is * m1
    t_var = y_is**2 * np.maximum(c2 * m2 - m1**2, 0.0)
    q_mean = t1 + wait_mean[server_idx]
    q_var = t_var + wait_var[server_idx]

    # Batch the Eq. (9) solves by fan-out width.
    file_bounds = np.empty(pop.n_files)
    order = np.argsort(file_idx, kind="stable")
    q_mean = q_mean[order]
    q_var = q_var[order]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    for width in np.unique(counts):
        which = np.nonzero(counts == width)[0]
        rows_mean = np.empty((which.size, width))
        rows_var = np.empty((which.size, width))
        for row, i in enumerate(which):
            lo, hi = offsets[i], offsets[i + 1]
            rows_mean[row] = q_mean[lo:hi]
            rows_var[row] = q_var[lo:hi]
        file_bounds[which] = fork_join_upper_bound_batch(rows_mean, rows_var)

    mean_bound = float(np.dot(pop.popularities, file_bounds))
    return ModelEvaluation(
        mean_bound=mean_bound,
        file_bounds=file_bounds,
        utilisation=rho,
        stable=stable,
    )
