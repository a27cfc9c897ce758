"""Fig. 6 — normalized goodput versus partition count.

The paper measures goodput (useful bits over the wire) reading one file
through k parallel connections from a single server: it drops ~20 % at
k = 20 and ~40 % at k = 100 on 1 Gbps, and to 0.6 at k = 100 on 500 Mbps.
Our :class:`~repro.cluster.network.GoodputModel` is *calibrated* from that
figure, so this experiment is a calibration check plus a micro-simulation
confirming the model's effect on transfer time.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.network import GoodputModel
from repro.common import MB, Mbps, Gbps
from repro.experiments.registry import experiment

__all__ = ["run_fig06"]

PAPER = {
    "1gbps": {1: 1.0, 20: 0.8, 100: 0.62},
    "500mbps": {1: 1.0, 20: 0.75, 100: 0.6},
}


@experiment(paper=PAPER)
def run_fig06(ks: tuple[int, ...] = (1, 2, 5, 10, 20, 50, 100)) -> list[dict]:
    model = GoodputModel()
    rows = []
    for k in ks:
        g1 = model.factor(k, Gbps)
        g5 = model.factor(k, 500 * Mbps)
        # Effective transfer time of a 40 MB file through k connections on
        # one server (all partitions co-located, as in the paper's setup).
        base = 40 * MB / Gbps
        rows.append(
            {
                "partitions": k,
                "goodput_1gbps": g1,
                "goodput_500mbps": g5,
                "transfer_s_40mb_1gbps": base / g1,
                "paper_1gbps": PAPER["1gbps"].get(k, ""),
                "paper_500mbps": PAPER["500mbps"].get(k, ""),
            }
        )
    goodput = [r["goodput_1gbps"] for r in rows]
    if not np.all(np.diff(goodput) <= 0):
        raise ValueError(
            "fig06: goodput at 1 Gbps must not rise with the partition "
            f"count; got {dict(zip(ks, goodput))}"
        )
    return rows
