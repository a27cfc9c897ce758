"""Per-request keyed draws for the reference oracles (tests only).

The engine plans whole batches (:mod:`repro.cluster.engine.batch`); the
oracles in ``fifo_oracle.py`` and ``heap_oracle.py`` walk one request at a
time and read the same counter-keyed values through
:func:`repro.cluster.engine.draws.uniforms`, one ``(request, slot)`` row
at a time.  Nothing here touches the batch planner, so an oracle run is
independent of it.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.client import ReadOp
from repro.cluster.engine import draws
from repro.cluster.engine.lifecycle import RequestLifecycle


class KeyedDraws:
    """Request ``j``'s plan, jitter and straggler delays from ``lc.seed``."""

    def __init__(self, lc: RequestLifecycle) -> None:
        self.lc = lc
        self.plan_slots = int(getattr(lc.planner, "plan_slots", 0))

    def row(self, purpose: int, j: int, k: int) -> np.ndarray:
        """Uniforms of request ``j``, slots ``0 .. k - 1``."""
        return draws.uniforms(self.lc.seed, purpose, j, np.arange(k))

    def plan(self, j: int, file_id: int) -> ReadOp:
        """The policy's fork-join for request ``j``."""
        return self.lc.planner.plan_read(
            file_id, self.row(draws.PLAN, j, self.plan_slots)
        )

    def jitter(self, j: int, k: int) -> np.ndarray:
        """Standard-exponential service jitter for ``k`` flows."""
        return draws.exponential(self.row(draws.JITTER, j, k))

    def report_delays(
        self, j: int, op: ReadOp
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(extra_seconds, multipliers)`` aligned with ``op.server_ids``.

        A straggling read reports late by ``(m - 1)`` times its nominal
        transfer time; call only when the run's injector is enabled.
        """
        lc = self.lc
        servers = op.server_ids
        k = servers.size
        profile = lc.injector.profile
        factor = profile.factor_at(self.row(draws.FACTOR, j, k))
        if lc.per_server:
            hit = lc.straggler_mask[servers]
        else:
            hit = self.row(draws.STRAGGLE, j, k) < profile.probability
        mult = np.where(hit, factor, 1.0)
        extra = (mult - 1.0) * (op.sizes / lc.bandwidths[servers])
        return extra, mult
