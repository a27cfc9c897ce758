"""The fork-join read simulator: a thin dispatcher over the engine core.

Model (matching Sec. 5.3 plus the two measured effects its analysis
omits): a request for file ``i`` arriving at ``t`` forks one read per
partition; all forks enqueue at ``t`` and the file completes when
``join_count`` of them finish (all of them for plain partitioning, ``k``
of ``k + 1`` for EC-Cache's late binding), plus any post-join decode
delay.  Per-connection goodput loss shrinks effective bandwidth, an
injected straggler delays the read's *reported* completion without
holding the server, and with a throttled cache budget a cluster-wide
file-granularity LRU charges misses ``miss_penalty`` times the hit
latency (the Sec. 7.7 assumption).

*How a server schedules concurrent reads* is pluggable: the shared
request lifecycle lives in :mod:`repro.cluster.engine.lifecycle` and the
service discipline (``"fifo"``, ``"ps"``, ``"limited(c)"``, or any
registered :class:`~repro.cluster.engine.ServerDiscipline`) is selected
by :attr:`SimulationConfig.discipline` through the registry in
:mod:`repro.cluster.engine.registry`.  Every discipline plans requests
in batches of :attr:`SimulationConfig.batch_size`
(:meth:`~repro.cluster.engine.RequestLifecycle.batches`); the size tunes
speed and memory only, never results.
"""

from __future__ import annotations

from repro.cluster.engine import (
    RequestLifecycle,
    SimulationConfig,
    SimulationResult,
    planner_name,
    record_run_metrics,
    resolve_discipline,
)
from repro.cluster.topology import ClusterTopology
from repro.common import ClusterSpec
from repro.workloads.arrivals import ArrivalTrace
from repro.workloads.streams import WorkloadStream

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "planner_name",
    "record_run_metrics",
    "simulate_reads",
]


def simulate_reads(
    trace: ArrivalTrace | WorkloadStream,
    planner,
    cluster: ClusterSpec | ClusterTopology,
    config: SimulationConfig | None = None,
) -> SimulationResult:
    """Run a request trace against a placement policy on a cluster.

    ``planner`` is any policy from :mod:`repro.policies` (or anything
    honouring the :class:`~repro.cluster.client.ReadPlanner` protocol).
    The server model comes from ``config.discipline`` — see
    :class:`SimulationConfig`.  ``trace`` may be an eager
    :class:`ArrivalTrace` or a lazy
    :class:`~repro.workloads.streams.WorkloadStream`; streams feed the
    fifo discipline chunk by chunk and are materialized for the heap
    disciplines.

    ``cluster`` may be a static :class:`ClusterSpec` or an
    epoch-versioned :class:`~repro.cluster.topology.ClusterTopology`; a
    topology runs against its epoch-0 spec (byte-identical results for
    fixed topologies) and additionally emits ``membership``/``epoch``
    trace events when tracing is enabled.  Churn experiments
    (``fig_churn``) re-simulate per epoch instead.
    """
    config = config or SimulationConfig()
    discipline = resolve_discipline(config.discipline)
    lifecycle = RequestLifecycle(
        trace, planner, cluster, config, engine=discipline.name
    )
    return discipline.run(lifecycle)
