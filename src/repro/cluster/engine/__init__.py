"""The pluggable fork-join engine core.

One :class:`RequestLifecycle` owns everything every engine shares — batch
read planning, goodput memoization, jitter, straggler report-delay semantics,
LRU admission and miss penalty, join accounting, READ/READ_DONE tracing,
end-of-run metrics — while a :class:`ServerDiscipline` plug-in decides
how each cache server multiplexes concurrent partition reads:

========== =========================================================
``fifo``   one transfer at a time (the paper's M/G/1 abstraction);
           exact heap-free fast path
``ps``     two-sided processor sharing (server + client NIC caps);
           how the EC2 testbed behaves
``limited`` ``limited(c)``: at most ``c`` concurrent flows per server,
           FIFO beyond — ``limited(1)`` ≈ ``fifo``, ``limited(inf)``
           = ``ps``
========== =========================================================

Add a discipline by implementing ``run(lifecycle)`` and calling
:func:`register_discipline`; ``docs/engine.md`` walks through it.
"""

from repro.cluster.engine.batch import (
    DEFAULT_BATCH_SIZE,
    BatchPlanner,
    PlanBatch,
)
from repro.cluster.engine.lifecycle import (
    METRIC_SNAPSHOT_KEYS,
    RequestLifecycle,
    SimulationConfig,
    SimulationResult,
    planner_name,
    record_run_metrics,
)
from repro.cluster.engine.registry import (
    ServerDiscipline,
    available_disciplines,
    register_discipline,
    resolve_discipline,
)

# Importing the implementation modules registers the built-ins.
from repro.cluster.engine.fifo import FifoDiscipline
from repro.cluster.engine.shared_heap import LimitedDiscipline, PSDiscipline

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "METRIC_SNAPSHOT_KEYS",
    "BatchPlanner",
    "FifoDiscipline",
    "LimitedDiscipline",
    "PSDiscipline",
    "PlanBatch",
    "RequestLifecycle",
    "ServerDiscipline",
    "SimulationConfig",
    "SimulationResult",
    "available_disciplines",
    "planner_name",
    "record_run_metrics",
    "register_discipline",
    "resolve_discipline",
]
