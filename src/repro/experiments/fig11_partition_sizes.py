"""Fig. 11 — partition sizes chosen by SP-Cache across popularity ranks.

Setup (Sec. 7.2): 100 files of 100 MB.  Paper result: the search settles
on an alpha under which only the top ~30 % of files are split at all —
the "vital few" get fine partitions, the "trivial many" stay whole — and
the partition numbers vary widely across the split files.

This experiment runs Algorithm 1 exactly as published (the ``"paper"``
local 1 %-stop mode) over the straggler-aware bound; see
``repro.core.scale_factor`` for why the published stop rule needs the
overhead-aware bound to terminate selectively on every workload size.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.network import GoodputModel
from repro.common import MB
from repro.core import optimal_scale_factor, partition_counts
from repro.core.partitioner import partition_sizes
from repro.experiments.config import EC2_CLUSTER
from repro.workloads import BingStragglerProfile, paper_fileset
from repro.experiments.registry import experiment

__all__ = ["run_fig11"]

PAPER = {"split_fraction": 0.30, "unsplit_tail": "bottom 70% untouched"}


@experiment(paper=PAPER)
def run_fig11(n_files: int = 100, rate: float = 8.0) -> list[dict]:
    pop = paper_fileset(
        n_files, size_mb=100, zipf_exponent=1.05, total_rate=rate
    )
    search = optimal_scale_factor(
        pop,
        EC2_CLUSTER,
        goodput=GoodputModel(),
        straggler_moments=BingStragglerProfile().moments(),
        client_cap=True,
        service_distribution="deterministic",
        mode="paper",
        seed=0,
    )
    ks = partition_counts(pop, search.alpha, n_servers=EC2_CLUSTER.n_servers)
    sizes = partition_sizes(pop, ks)
    # Files are already in descending popularity order (rank 0 hottest).
    rows = []
    for rank in (0, 4, 9, 19, 29, 39, 59, 79, 99):
        if rank >= n_files:
            continue
        rows.append(
            {
                "popularity_rank": rank + 1,
                "partitions": int(ks[rank]),
                "partition_size_mb": sizes[rank] / MB,
            }
        )
    rows.append(
        {
            "popularity_rank": "split fraction",
            "partitions": float((ks > 1).mean()),
            "partition_size_mb": f"paper: {PAPER['split_fraction']}",
        }
    )
    rows.append(
        {
            "popularity_rank": "alpha (MB-load units)",
            "partitions": search.alpha * MB,
            "partition_size_mb": "",
        }
    )
    rises = np.flatnonzero(~(np.diff(ks.astype(float)) <= 0))
    if rises.size:
        raise ValueError(
            "fig11: partition counts must not rise as popularity falls; "
            "got (rank, partitions) -> (rank, partitions) "
            + ", ".join(
                f"({i + 1}, {ks[i]}) -> ({i + 2}, {ks[i + 1]})" for i in rises
            )
        )
    return rows
