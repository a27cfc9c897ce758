"""Canonical trace event names and their field schemas.

Every instrumented module emits events whose names are collected here so
replay code, tests, and docs agree on one vocabulary.  The full field
tables live in ``docs/observability.md``; this module is the in-code
source of truth for the *names*.

Conventions
-----------
* ``ts`` is simulated seconds for simulator events (``read``,
  ``read_done``) and ``time.perf_counter()`` seconds for control-plane and
  profiling events.
* Identifiers are snake_case and grouped by layer with a short prefix-free
  name — the layer is recoverable from :data:`EVENT_LAYER`.
"""

from __future__ import annotations

__all__ = [
    "EVENT_LAYER",
    "SIMULATOR_EVENTS",
    "STORE_EVENTS",
    "CORE_EVENTS",
    "TOPOLOGY_EVENTS",
    "POPULARITY_EVENTS",
    "SLO_EVENTS",
    "CAUSAL_EVENTS",
]

# -- simulator (repro.cluster) ------------------------------------------------
READ = "read"  # one fork-join request: servers, sizes, queue wait
READ_DONE = "read_done"  # request completion: latency
SIMULATION_END = "simulation_end"  # per-run aggregates
TIMELINE_WINDOW = "timeline_window"  # one sim-time window: bytes, busy, queue

# -- byte store (repro.store) -------------------------------------------------
BLOCK_PUT = "block_put"
BLOCK_GET = "block_get"
BLOCK_MISS = "block_miss"  # get/delete of an absent block (BlockNotFound)
BLOCK_EVICT = "block_evict"
BLOCK_DELETE = "block_delete"
WORKER_CRASH = "worker_crash"
FILE_REGISTER = "file_register"
FILE_UNREGISTER = "file_unregister"
FILE_RELOCATE = "file_relocate"
RECOVERY = "recovery"  # lineage recompute of a lost file: file_id, wall_s

# -- control plane (repro.core) -----------------------------------------------
SCALE_ITER = "scale_iter"  # one Algorithm 1 ladder step: alpha, bound
SCALE_SEARCH = "scale_search"  # whole search: iterations, wall time
ADJUST_PLAN = "adjust_plan"  # one OnlineAdjuster round planned
ADJUST_APPLY = "adjust_apply"  # ops committed: count, moved bytes
REPARTITION_PLAN = "repartition_plan"  # Algorithm 2 planning outcome
REPARTITION_TIME = "repartition_time"  # timing-model evaluation

# -- cluster topology (repro.cluster.topology) --------------------------------
MEMBERSHIP = "membership"  # one server add/remove: ts, kind, server_id
EPOCH = "epoch"  # one epoch opening: epoch, n_servers, added, removed

# -- popularity / skew (repro.obs.popularity) ---------------------------------
POPULARITY_WINDOW = "popularity_window"  # one window: count, drift, imbalance
DRIFT = "drift"  # popularity drift alert: weighted L1 / rank churn tripped
HOTSPOT = "hotspot"  # single-file hot-spot alert: file_id, share

# -- SLO engine (repro.obs.slo) -----------------------------------------------
SLO_BREACH = "slo_breach"  # burn-rate alert opened: objective, severity, burn
SLO_RECOVERED = "slo_recovered"  # burn-rate alert closed: objective, severity

# -- spans / profiling (repro.obs.spans) --------------------------------------
SPAN = "span"  # hierarchical wall-clock span: name, span_id, parent, wall_s

# -- causal tracing (repro.obs.causal) ----------------------------------------
CSPAN = "cspan"  # causal span: name, trace_id, span_id, parent_id, edges

SIMULATOR_EVENTS = (READ, READ_DONE, SIMULATION_END, TIMELINE_WINDOW)
STORE_EVENTS = (
    BLOCK_PUT,
    BLOCK_GET,
    BLOCK_MISS,
    BLOCK_EVICT,
    BLOCK_DELETE,
    WORKER_CRASH,
    FILE_REGISTER,
    FILE_UNREGISTER,
    FILE_RELOCATE,
    RECOVERY,
)
CORE_EVENTS = (
    SCALE_ITER,
    SCALE_SEARCH,
    ADJUST_PLAN,
    ADJUST_APPLY,
    REPARTITION_PLAN,
    REPARTITION_TIME,
)
TOPOLOGY_EVENTS = (MEMBERSHIP, EPOCH)
POPULARITY_EVENTS = (POPULARITY_WINDOW, DRIFT, HOTSPOT)
SLO_EVENTS = (SLO_BREACH, SLO_RECOVERED)
CAUSAL_EVENTS = (CSPAN,)

EVENT_LAYER: dict[str, str] = {
    **{name: "simulator" for name in SIMULATOR_EVENTS},
    **{name: "store" for name in STORE_EVENTS},
    **{name: "core" for name in CORE_EVENTS},
    **{name: "topology" for name in TOPOLOGY_EVENTS},
    **{name: "popularity" for name in POPULARITY_EVENTS},
    **{name: "slo" for name in SLO_EVENTS},
    **{name: "causal" for name in CAUSAL_EVENTS},
    SPAN: "profiling",
}
