"""Algorithm 1: exponential search for the optimal scale factor.

The bound of Sec. 5.3 decreases steeply in ``alpha`` while load imbalance
dominates, then flattens (the "elbow") and eventually rises in reality from
networking overhead the model excludes.  Algorithm 1 therefore starts from
the alpha that gives the hottest file ``N/3`` partitions, inflates by 1.5x
per step, and stops when the bound improves by less than 1 % — settling on
the elbow without ever modelling the overhead side.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.network import GoodputModel
from repro.common import ClusterSpec, FilePopulation, make_rng
from repro.core.latency_model import ForkJoinModel
from repro.core.partitioner import partition_counts
from repro.core.placement import extend_placement, place_partitions_random
from repro.obs import events as ev
from repro.obs.metrics import get_registry
from repro.obs.spans import span
from repro.obs.tracing import get_tracer

__all__ = ["ScaleFactorSearch", "optimal_scale_factor"]


@dataclass(frozen=True)
class ScaleFactorSearch:
    """Result of Algorithm 1.

    ``trajectory`` holds one ``(alpha, bound)`` pair per iteration so the
    Fig. 8 experiment can plot the search path; ``alpha``/``bound`` are the
    best iterate seen (the last one under ``"paper"`` mode with the
    monotone pure bound, the ladder argmin under ``"sweep"``).
    """

    alpha: float
    bound: float
    trajectory: list[tuple[float, float]] = field(default_factory=list)

    @property
    def n_iterations(self) -> int:
        return len(self.trajectory)


def optimal_scale_factor(
    population: FilePopulation,
    cluster: ClusterSpec,
    growth: float = 1.5,
    improvement_threshold: float = 0.01,
    initial_partitions_fraction: float = 1.0 / 3.0,
    max_iterations: int = 60,
    goodput: GoodputModel | None = None,
    straggler_moments: tuple[float, float, float] | None = None,
    client_cap: bool = False,
    service_distribution: str = "exponential",
    mode: str = "paper",
    seed: int | np.random.Generator | None = 0,
) -> ScaleFactorSearch:
    """Run Algorithm 1 and return the settled scale factor.

    Placement discipline (line 3): one random placement is drawn for the
    initial partition counts and *extended in place* as counts grow — files
    keep their existing partition servers and only gain new ones.  Redrawing
    the whole placement each iteration would inject a few percent of
    placement noise into consecutive bounds, defeating the 1 % stop rule.
    The loop is additionally capped at ``max_iterations`` and stops early if
    every file has hit the ``N``-partition clamp.

    ``mode`` selects the stopping discipline:

    * ``"paper"`` — Algorithm 1 verbatim: stop at the first step whose
      bound changes by less than ``improvement_threshold`` relative to the
      previous step.  A *local* rule: correct for the paper's monotone
      pure bound, but it can park on a local plateau when the bound is
      evaluated with the overhead-aware model variants (straggler moments,
      client cap), whose curves can be multi-modal in ``alpha``.
    * ``"sweep"`` — walk the same 1.5x ladder all the way to saturation
      (every file at the ``N``-partition clamp) and return the alpha with
      the smallest bound.  ~20 bound evaluations instead of ~5; immune to
      local plateaus.  This is what :class:`SPCachePolicy` uses by
      default.

    Either way the returned ``alpha`` is the best iterate seen (a no-op
    under ``"paper"`` mode with the monotone pure bound).
    """
    if growth <= 1:
        raise ValueError("growth must exceed 1")
    if improvement_threshold <= 0:
        raise ValueError("improvement_threshold must be positive")
    if not initial_partitions_fraction > 0:
        raise ValueError("initial_partitions_fraction must be positive")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    if mode not in ("paper", "sweep"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = make_rng(seed)
    model = ForkJoinModel(
        population,
        cluster,
        goodput=goodput,
        straggler_moments=straggler_moments,
        client_cap=client_cap,
        service_distribution=service_distribution,  # type: ignore[arg-type]
    )

    # Line 2: alpha^1 gives the hottest file N/3 partitions.
    l_max = float(population.loads.max())
    alpha = cluster.n_servers * initial_partitions_fraction / l_max

    tracer = get_tracer()
    wall_start = time.perf_counter()
    trajectory: list[tuple[float, float]] = []
    prev_bound = np.inf
    prev_ks: np.ndarray | None = None
    servers_of: list[np.ndarray] | None = None
    with span("scale_search", mode=mode):
        for _ in range(max_iterations):
            ks = partition_counts(
                population, alpha, n_servers=cluster.n_servers
            )
            if servers_of is None:
                servers_of = place_partitions_random(
                    ks, cluster.n_servers, seed=rng
                )
            else:
                servers_of = extend_placement(
                    servers_of, ks, cluster.n_servers, seed=rng
                )
            bound = model.evaluate(ks, servers_of).mean_bound
            trajectory.append((alpha, bound))
            if tracer.enabled:
                tracer.event(
                    ev.SCALE_ITER,
                    iteration=len(trajectory),
                    alpha=float(alpha),
                    bound=float(bound),
                    max_k=int(ks.max()),
                )

            if (
                mode == "paper"
                and np.isfinite(bound)
                and np.isfinite(prev_bound)
            ):
                if abs(bound - prev_bound) <= improvement_threshold * prev_bound:
                    break
            if np.all(ks == cluster.n_servers):
                # Every file is at the N-partition clamp; inflating further
                # cannot change anything.
                break
            if (
                mode == "paper"
                and prev_ks is not None
                and np.array_equal(ks, prev_ks)
            ):
                break
            prev_bound = bound
            prev_ks = ks
            alpha *= growth

    # Settle on the best iterate.  With the paper's monotone bound the last
    # iterate is the minimum and this is a no-op; with the overhead-aware
    # variants the curve is U-shaped and the flat stop can land one step
    # past the bottom.
    finite = [(a, b) for a, b in trajectory if np.isfinite(b)]
    if finite:
        best_alpha, best_bound = min(finite, key=lambda ab: ab[1])
    else:
        best_alpha, best_bound = trajectory[0]

    elapsed = time.perf_counter() - wall_start
    reg = get_registry()
    reg.counter("core.scale_search.runs", mode=mode).inc()
    reg.counter("core.scale_search.iterations", mode=mode).inc(len(trajectory))
    reg.histogram("core.scale_search.seconds", mode=mode).observe(elapsed)
    if tracer.enabled:
        tracer.event(
            ev.SCALE_SEARCH,
            mode=mode,
            iterations=len(trajectory),
            alpha=float(best_alpha),
            bound=float(best_bound),
            wall_s=elapsed,
        )
    return ScaleFactorSearch(
        alpha=best_alpha, bound=best_bound, trajectory=trajectory
    )
