"""Fork-join M/G/1 mean-latency upper bound (Sec. 5.3, Eqs. 4-13).

Model recap: file ``i`` (size ``S_i``, rate ``lambda_i``) is split into
``k_i`` partitions on distinct servers.  A read forks to every one of those
servers; each server is an M/G/1 FIFO queue whose service times are
exponential with mean ``S_i / (k_i * B_s)`` for a partition of file ``i``.
Per server ``s`` (``C_s`` = files with a partition there):

* aggregate arrival rate      ``Lambda_s = sum_{i in C_s} lambda_i``        (5)
* mean service time           ``mu_s     = sum (lambda_i/Lambda_s) x_is``   (6)
* 2nd/3rd service moments     ``Gamma2_s, Gamma3_s``                        (12, 13)
* utilisation                 ``rho_s    = Lambda_s * mu_s``
* sojourn mean / variance via Pollaczek-Khinchine                           (10, 11)

and the per-file mean read latency is bounded through Eq. (9), weighted by
popularity into the system bound (8).

Implementation notes: all per-server aggregates are ``np.bincount``
reductions over a flattened (file, server) incidence; the Eq. (9) solve
runs once over a padded ``(n_files, max k_i)`` matrix of per-queue sojourn
moments with each row masked to its own width, so evaluating 10k files
costs one vectorized bisection rather than 10k CVXPY programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from repro.cluster.network import GoodputModel
from repro.common import ClusterSpec, FilePopulation
from repro.core.convex import fork_join_upper_bound_batch

__all__ = ["ForkJoinModel", "ModelEvaluation"]


@dataclass(frozen=True)
class ModelEvaluation:
    """Outcome of one bound evaluation."""

    mean_bound: float  # Eq. (8) with per-file bounds from Eq. (9)
    file_bounds: np.ndarray  # T_hat_i per file
    utilisation: np.ndarray  # rho_s per server
    stable: bool  # all rho_s < 1

    @property
    def max_utilisation(self) -> float:
        return float(self.utilisation.max())


@dataclass(frozen=True)
class ForkJoinModel:
    """Bound evaluator bound to a population and a cluster."""

    population: FilePopulation
    cluster: ClusterSpec

    #: Optional goodput model: when set, a file read with fan-out ``k_i``
    #: transfers each partition at ``B_s * g(k_i)`` instead of ``B_s``.  The
    #: paper's analysis omits this term (Sec. 5.3 assumes a non-blocking
    #: network); ``None`` reproduces the pure Eq. (9) bound used in Fig. 8.
    goodput: GoodputModel | None = None

    #: Optional straggler moments ``(E[M], E[M^2], E[M^3])`` of an
    #: independent multiplicative *completion-report* slowdown (e.g.
    #: ``BingStragglerProfile.moments()``).  Matching the injection's
    #: "sleep the server thread" semantics, the slowdown delays the tagged
    #: read's reported completion but consumes no server capacity — so it
    #: scales the tagged transfer's moments, not the queue's.  The paper's
    #: analysis "does not model the stragglers"; folding them in penalizes
    #: wide fork-joins (the join's spread grows with fan-out when slowdowns
    #: are heavy-tailed), which is what turns the bound U-shaped in alpha.
    #: ``None`` = no stragglers (pure paper model).
    straggler_moments: tuple[float, float, float] | None = None

    #: Whether the tagged read's own transfer is additionally capped by the
    #: reading client's aggregate NIC: its effective bandwidth becomes
    #: ``min(B_s, B_client / k_i)`` (all ``k_i`` streams share the client
    #: NIC), while server utilization and queueing-wait moments keep using
    #: the server-side service time — the server is only busy for the bytes
    #: it ships.  The paper's analysis assumes a non-blocking network (no
    #: client cap); the cap is what makes the bound turn upward once ``k_i``
    #: exceeds ``B_client / B_s``: a lone read then takes ``S_i / B_client``
    #: no matter how finely it is split, so finer partitions buy only load
    #: balance while widening the fork-join.  ``False`` reproduces the pure
    #: Eq. (9) bound.
    client_cap: bool = False

    #: Base transfer-time law.  ``"exponential"`` is the paper's assumption
    #: (Sec. 5.3: "we model the transfer delay as exponentially
    #: distributed"); ``"deterministic"`` matches the processor-sharing
    #: simulator's deterministic byte streams (variability then comes only
    #: from queueing and stragglers), which is the right companion when the
    #: model configures a deployment evaluated on that engine.
    service_distribution: Literal["exponential", "deterministic"] = "exponential"

    def evaluate(
        self, ks: np.ndarray, servers_of: list[np.ndarray]
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
        if np.any(ks < 1):
            raise ValueError("every file needs at least one partition")

        lam = pop.rates
        x_part = pop.sizes / ks  # partition bytes per file

        # Flatten the (file, server) incidence once.
        counts = np.fromiter(map(len, servers_of), np.int64, len(servers_of))
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

        # One Eq. (9) solve for every file: row i of the padded matrices
        # holds file i's k_i sojourn moments in its first k_i cells.  The
        # incidence is file-major, so a row-major mask scatter lands them in
        # servers_of[i]'s order.
        cells = np.arange(int(counts.max())) < counts[:, None]
        rows_mean = np.zeros(cells.shape)
        rows_var = np.zeros(cells.shape)
        rows_mean[cells] = q_mean
        rows_var[cells] = q_var
        file_bounds = fork_join_upper_bound_batch(rows_mean, rows_var, counts)

        mean_bound = float(np.dot(pop.popularities, file_bounds))
        return ModelEvaluation(
            mean_bound=mean_bound,
            file_bounds=file_bounds,
            utilisation=rho,
            stable=stable,
        )
