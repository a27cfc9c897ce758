"""The latency distribution does not depend on how draws are keyed.

A check that does not compare the code with itself: the reference in
``tests/data/latency_reference_fifo.json`` was captured by
``latency_reference.py`` from the build that still drew every random
number from one sequential generator.  It holds, per scheme of one
Fig. 13 point (fifo, deterministic jitter, natural stragglers, 20 000
requests), the latency quantiles of a run at the figures' simulator seed
and the largest KS distance between that reference and five runs at
other seeds of the same build (``ks_spread``).

Today's keyed stream, run at those five other seeds, must sit no farther
from the reference than the old stream's own runs did: the median of
its five KS distances is at most ``ks_spread``.  (The median, not the
maximum: if the two streams are equally distributed, each new distance
is a fresh draw from the same law as the five old ones, so any single
one exceeds their maximum with probability 1/6.)
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from .latency_reference import ks_distance, scheme_latencies

REFERENCE = json.loads(
    (
        Path(__file__).parent.parent / "data" / "latency_reference_fifo.json"
    ).read_text()
)


@pytest.fixture(scope="module")
def new_runs():
    return [
        scheme_latencies(
            REFERENCE["discipline"], REFERENCE["n_requests"], seed
        )
        for seed in REFERENCE["other_seeds"]
    ]


@pytest.mark.parametrize("scheme", sorted(REFERENCE["schemes"]))
def test_keyed_stream_matches_reference_distribution(scheme, new_runs):
    ref = REFERENCE["schemes"][scheme]
    table = np.asarray(ref["quantiles"])
    distances = [ks_distance(table, run[scheme]) for run in new_runs]
    assert float(np.median(distances)) <= ref["ks_spread"], (
        f"{scheme}: KS to reference {distances} vs old-vs-old spread "
        f"{ref['ks_spread']:.4f}"
    )
