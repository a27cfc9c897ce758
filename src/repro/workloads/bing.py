"""Straggler delay-factor profile from the Microsoft Bing cluster.

Secs. 4.2 and 7.5 inject stragglers as follows: with probability 0.05 a
partition read is delayed "by a factor randomly drawn from the distribution
profiled in the Microsoft Bing cluster trace" (the Mantri study [43]).  The
raw trace is proprietary; Mantri reports that outlier tasks run 1.5x or more
slower than the median, with a heavy tail where the slowest tasks take up to
~10x.  We encode that published shape as an empirical inverse-CDF over
slowdown factors, which is what the injection actually needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common import make_rng

__all__ = ["BingStragglerProfile"]

# Published shape of the Mantri outlier slowdown distribution: quantiles of
# the delay factor conditioned on the task being a straggler.  Piecewise
# linear between knots; factor 1.5 is Mantri's threshold for calling a task
# an outlier, and the tail reaches ~10x.
_DEFAULT_QUANTILES = (0.0, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0)
_DEFAULT_FACTORS = (1.5, 2.0, 2.5, 3.5, 6.0, 10.0, 12.0)


@dataclass(frozen=True)
class BingStragglerProfile:
    """Empirical slowdown-factor distribution for injected stragglers.

    ``probability`` is the chance that any single partition read (or, in
    Sec. 7.5, a server) straggles; conditioned on straggling, the service
    time is multiplied by a factor drawn from the inverse-CDF defined by
    ``quantiles``/``factors``.
    """

    probability: float = 0.05
    quantiles: tuple[float, ...] = _DEFAULT_QUANTILES
    factors: tuple[float, ...] = _DEFAULT_FACTORS

    def __post_init__(self) -> None:
        if not 0 <= self.probability <= 1:
            raise ValueError("probability must be in [0, 1]")
        q = np.asarray(self.quantiles, dtype=np.float64)
        f = np.asarray(self.factors, dtype=np.float64)
        if q.shape != f.shape or q.size < 2:
            raise ValueError("quantiles and factors must align, length >= 2")
        if q[0] != 0.0 or q[-1] != 1.0 or np.any(np.diff(q) < 0):
            raise ValueError("quantiles must be nondecreasing from 0 to 1")
        if np.any(f < 1.0) or np.any(np.diff(f) < 0):
            raise ValueError("factors must be nondecreasing and >= 1")

    def sample_factors(
        self, n: int, seed: int | np.random.Generator | None = None
    ) -> np.ndarray:
        """Draw ``n`` conditional slowdown factors (each >= 1.5 by default)."""
        return self.factor_at(make_rng(seed).random(n))

    def factor_at(self, u: np.ndarray) -> np.ndarray:
        """Slowdown factors at uniforms ``u`` (the inverse CDF, elementwise)."""
        return np.interp(u, self.quantiles, self.factors)

    def sample_multipliers(
        self, n: int, seed: int | np.random.Generator | None = None
    ) -> np.ndarray:
        """Draw ``n`` unconditional service-time multipliers.

        Each entry is 1.0 with probability ``1 - probability`` and a
        slowdown factor otherwise.  Vectorized so the simulator can
        pre-sample an entire experiment's worth of reads in one call.
        """
        rng = make_rng(seed)
        mult = np.ones(n, dtype=np.float64)
        hits = rng.random(n) < self.probability
        n_hits = int(hits.sum())
        if n_hits:
            mult[hits] = self.sample_factors(n_hits, seed=rng)
        return mult

    def mean_multiplier(self) -> float:
        """Expected unconditional multiplier (used by sanity tests)."""
        return self.moments()[0]

    def moments(self, fine: int = 2048) -> tuple[float, float, float]:
        """First three moments of the unconditional multiplier.

        ``E[M^j] = (1 - p) + p * E[f^j]`` with ``E[f^j]`` integrated over the
        piecewise-linear inverse CDF.  Used by the straggler-aware variant of
        the fork-join latency model: an independent multiplicative slowdown
        scales the service moments by exactly these factors.
        """
        q = np.linspace(0.0, 1.0, fine)
        f = np.interp(q, self.quantiles, self.factors)
        p = self.probability
        return tuple(
            float((1.0 - p) + p * np.trapezoid(f**j, q)) for j in (1, 2, 3)
        )  # type: ignore[return-value]

    def disabled(self) -> "BingStragglerProfile":
        """Profile with straggler injection turned off."""
        return BingStragglerProfile(
            probability=0.0, quantiles=self.quantiles, factors=self.factors
        )
