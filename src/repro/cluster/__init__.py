"""Discrete-event cluster-cache simulator.

This package replaces the paper's EC2/Alluxio testbed.  A file read forks
into parallel partition reads and joins on the slowest (or, with late
binding, the ``k``-th fastest).  On top of the queueing core sit the two
effects the paper measures but its model omits: per-connection goodput
loss (Fig. 6) and straggler injection (Bing profile).

How a cache server schedules concurrent reads is a plug-in
(:mod:`repro.cluster.engine`): the ``fifo`` discipline is the paper's
M/G/1 single-channel abstraction (an exact heap-free fast path), ``ps``
is two-sided processor sharing (how the testbed's parallel TCP streams
behave), and ``limited(c)`` caps each server at ``c`` concurrent flows
with FIFO overflow.  The shared request lifecycle — planning, goodput,
jitter, stragglers, LRU, join accounting, tracing, metrics — lives in
:class:`repro.cluster.engine.RequestLifecycle`; ``docs/engine.md``
explains the split and how to register new disciplines.
"""

from repro.cluster.client import ReadOp, WriteOp
from repro.cluster.engine import (
    ServerDiscipline,
    available_disciplines,
    register_discipline,
    resolve_discipline,
)
from repro.cluster.metrics import (
    LatencySummary,
    coefficient_of_variation,
    imbalance_factor,
    summarize_latencies,
)
from repro.cluster.network import GoodputModel
from repro.cluster.simulation import SimulationConfig, SimulationResult, simulate_reads
from repro.cluster.stragglers import StragglerInjector
from repro.cluster.topology import (
    ChurnSchedule,
    ClusterTopology,
    EpochView,
    MembershipEvent,
    as_cluster_spec,
)

__all__ = [
    "ChurnSchedule",
    "ClusterTopology",
    "EpochView",
    "GoodputModel",
    "LatencySummary",
    "MembershipEvent",
    "ReadOp",
    "ServerDiscipline",
    "SimulationConfig",
    "SimulationResult",
    "StragglerInjector",
    "WriteOp",
    "as_cluster_spec",
    "available_disciplines",
    "coefficient_of_variation",
    "imbalance_factor",
    "register_discipline",
    "resolve_discipline",
    "simulate_reads",
    "summarize_latencies",
]
