"""Membership section sinks: topology epochs into run manifests.

:class:`~repro.cluster.topology.ClusterTopology` renders its epoch and
event history as one JSON-able *membership section*
(:meth:`~repro.cluster.topology.ClusterTopology.membership_section`);
this module's :class:`~repro.obs.sections.Channel` carries those sections
from wherever a churn experiment runs into the manifest builder — the
same nested sinks as every other observer, so a session-level collector
sees everything a per-experiment collector does.  Membership has no
ambient config: churn experiments publish explicitly.

Manifests store the collected sections under the ``membership`` key
(schema version 7, :mod:`repro.obs.runinfo`); fixed-topology experiments
publish nothing and the key stays an empty list.  Every section must
carry its ``epochs`` list; a ``scheme`` label is conventional when an
experiment publishes one section per placement strategy.
"""

from __future__ import annotations

from repro.obs.sections import Channel

__all__ = [
    "MEMBERSHIP",
    "collect_membership",
    "publish_membership",
]

#: The membership :class:`~repro.obs.sections.Channel`.
MEMBERSHIP = Channel("membership", "membership", None, "epochs", list)
collect_membership = MEMBERSHIP.collect
publish_membership = MEMBERSHIP.publish
