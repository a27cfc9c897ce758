"""Request arrival processes.

The EC2 experiments use independent Poisson clients (Sec. 2.2, 7.1); the
trace-driven simulation replaces Poisson with a recorded arrival sequence
(Sec. 7.7).  Both reduce to an :class:`ArrivalTrace`: sorted timestamps plus
the file each request targets.  Sampling is fully vectorized — one
``rng.exponential`` / ``rng.choice`` call per trace, no Python-level loops —
so generating hundreds of thousands of requests is effectively free next to
simulating them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common import FilePopulation, make_rng, validate_probability_vector

__all__ = [
    "ArrivalTrace",
    "poisson_arrivals",
    "sample_file_choices",
    "merge_traces",
    "trace_from_times",
]


@dataclass(frozen=True)
class ArrivalTrace:
    """A finite request stream: ``times[j]`` is when request ``j`` arrives
    and ``file_ids[j]`` which file it reads."""

    times: np.ndarray
    file_ids: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.float64)
        file_ids = np.asarray(self.file_ids, dtype=np.int64)
        if times.ndim != 1 or file_ids.shape != times.shape:
            raise ValueError("times and file_ids must be aligned 1-D arrays")
        if times.size and np.any(np.diff(times) < 0):
            raise ValueError("times must be sorted nondecreasing")
        if times.size and times[0] < 0:
            raise ValueError("times must be non-negative")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "file_ids", file_ids)

    @property
    def n_requests(self) -> int:
        return int(self.times.size)

    @property
    def horizon(self) -> float:
        return float(self.times[-1]) if self.times.size else 0.0

    def empirical_rate(self) -> float:
        """Requests per second over the observed span."""
        if self.n_requests < 2:
            return 0.0
        span = self.horizon - float(self.times[0])
        return (self.n_requests - 1) / span if span > 0 else float("inf")

    def slice_time(self, start: float, end: float) -> "ArrivalTrace":
        """Sub-trace with arrivals in ``[start, end)``, times re-based to 0."""
        mask = (self.times >= start) & (self.times < end)
        return ArrivalTrace(self.times[mask] - start, self.file_ids[mask])


def poisson_arrivals(
    rate: float,
    horizon: float | None = None,
    n_requests: int | None = None,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Sample Poisson(``rate``) arrival timestamps.

    Provide either ``horizon`` (duration in seconds) or ``n_requests``
    (exact count).  Inter-arrival gaps are sampled in one vectorized
    exponential draw and cumulatively summed.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if (horizon is None) == (n_requests is None):
        raise ValueError("provide exactly one of horizon or n_requests")
    rng = make_rng(seed)
    if n_requests is not None:
        if n_requests < 0:
            raise ValueError("n_requests must be non-negative")
        gaps = rng.exponential(1.0 / rate, size=n_requests)
        return np.cumsum(gaps)
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    # Oversample by 4 sigma, then trim — avoids a Python accumulation loop.
    expect = rate * horizon
    n_guess = int(expect + 4 * np.sqrt(expect) + 16)
    while True:
        times = np.cumsum(rng.exponential(1.0 / rate, size=n_guess))
        if times[-1] >= horizon:
            return times[times < horizon]
        n_guess *= 2  # pragma: no cover - astronomically rare


def sample_file_choices(
    popularities: np.ndarray,
    n_requests: int,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Draw the target file of each request i.i.d. from the popularity law."""
    p = validate_probability_vector(np.asarray(popularities))
    if n_requests < 0:
        raise ValueError("n_requests must be non-negative")
    rng = make_rng(seed)
    return rng.choice(p.size, size=n_requests, p=p)


def trace_from_times(
    times: np.ndarray,
    population: FilePopulation,
    seed: int | np.random.Generator | None = None,
) -> ArrivalTrace:
    """Attach popularity-sampled file targets to raw arrival timestamps.

    Used for trace-driven arrivals (e.g. the Google MMPP model) where the
    timestamps come from one source and the file choice from the popularity
    law, mirroring Sec. 7.7.
    """
    times = np.sort(np.asarray(times, dtype=np.float64))
    file_ids = sample_file_choices(population.popularities, times.size, seed=seed)
    return ArrivalTrace(times=times, file_ids=file_ids)


def poisson_trace(
    population: FilePopulation,
    horizon: float | None = None,
    n_requests: int | None = None,
    seed: int | np.random.Generator | None = None,
) -> ArrivalTrace:
    """Poisson arrivals at the population's aggregate rate, Zipf file choice.

    Thinning property: per-file arrival processes are then independent
    Poisson with rates ``lambda_i``, matching the paper's model exactly.
    """
    rng = make_rng(seed)
    times = poisson_arrivals(
        population.total_rate, horizon=horizon, n_requests=n_requests, seed=rng
    )
    return trace_from_times(times, population, seed=rng)


def merge_traces(traces: list[ArrivalTrace]) -> ArrivalTrace:
    """Time-merge several client traces into one aggregate stream."""
    if not traces:
        return ArrivalTrace(np.empty(0), np.empty(0, dtype=np.int64))
    times = np.concatenate([t.times for t in traces])
    file_ids = np.concatenate([t.file_ids for t in traces])
    order = np.argsort(times, kind="stable")
    return ArrivalTrace(times[order], file_ids[order])
