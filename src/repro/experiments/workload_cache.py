"""Seed-keyed memo cache for shared workload builds.

The scheme-comparison experiments (figs. 12-15, 19) and the trace-driven
run (fig. 21) all rebuild the same inputs — the Sec. 7.3 500-file Zipf
population at a handful of rates, the Poisson traces over them, the
Yahoo!-sized population — once per figure.  This module memoizes those
builds process-wide so a full ``run_all`` pass constructs each input
exactly once; everything is keyed on the *complete* argument tuple
(sizes, rates, seeds), so two builds share an entry only when they are
bit-for-bit the same computation.

Cache traffic is observable: every lookup increments a
``workload_cache.hit`` or ``workload_cache.miss`` counter (labelled by
build kind) on the active metrics registry, so per-experiment manifests
record how much recomputation the cache saved.  Because hit/miss splits
depend on execution order — a serial pass warms the cache for later
figures, a ``--jobs N`` pass gives each worker process a cold private
cache — ``repro report --diff`` deliberately ignores
``workload_cache.*`` keys (see :mod:`repro.obs.report`).

Cached values are returned by reference; workload objects
(:class:`~repro.common.FilePopulation`, arrival traces) are treated as
immutable by every consumer, and the golden-row tests assert that
repeated cached runs reproduce cold-run results exactly.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Callable, TypeVar

import numpy as np

from repro.obs.metrics import get_registry

__all__ = [
    "cache_stats",
    "cached_build",
    "clear_cache",
    "memoized",
    "population_fingerprint",
]

T = TypeVar("T")

_CACHE: dict[tuple, Any] = {}
_LOCK = threading.Lock()


def cached_build(kind: str, key: tuple, builder: Callable[[], T]) -> T:
    """Return ``builder()``, memoized under ``(kind, key)``.

    ``key`` must be hashable and must capture every input the builder
    depends on (including seeds).  The hit/miss counter lands on the
    *current* metrics registry, so lookups made inside
    ``run_experiment`` show up in that experiment's manifest.
    """
    full_key = (kind, key)
    with _LOCK:
        hit = full_key in _CACHE
    registry = get_registry()
    registry.counter(
        "workload_cache.hit" if hit else "workload_cache.miss", kind=kind
    ).inc()
    if not hit:
        value = builder()
        with _LOCK:
            # Two racing builders compute identical (seeded) values; keep
            # the first so later callers share one object.
            _CACHE.setdefault(full_key, value)
    with _LOCK:
        return _CACHE[full_key]


def memoized(kind: str) -> Callable[[Callable[..., T]], Callable[..., T]]:
    """Decorator: memoize a builder on its full ``(args, kwargs)`` tuple."""

    def decorate(func: Callable[..., T]) -> Callable[..., T]:
        def wrapper(*args: Any, **kwargs: Any) -> T:
            key = (args, tuple(sorted(kwargs.items())))
            return cached_build(kind, key, lambda: func(*args, **kwargs))

        wrapper.__name__ = func.__name__
        wrapper.__doc__ = func.__doc__
        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    return decorate


def population_fingerprint(population: Any) -> str:
    """A stable content hash of a file population.

    Lets derived builds (traces) key on the population they were drawn
    from without requiring the population object itself to be hashable.
    Hashing ~500 floats costs microseconds — noise next to trace
    generation.
    """
    digest = hashlib.sha1()
    digest.update(np.ascontiguousarray(population.sizes).tobytes())
    digest.update(np.ascontiguousarray(population.popularities).tobytes())
    digest.update(repr(float(population.total_rate)).encode())
    return digest.hexdigest()


def clear_cache() -> None:
    """Drop every cached build (test isolation)."""
    with _LOCK:
        _CACHE.clear()


def cache_stats() -> dict[str, int]:
    """Entry counts by build kind (diagnostics and tests)."""
    with _LOCK:
        stats: dict[str, int] = {}
        for kind, _ in _CACHE:
            stats[kind] = stats.get(kind, 0) + 1
        return stats
