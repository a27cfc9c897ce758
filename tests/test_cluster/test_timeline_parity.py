"""Cross-discipline timeline parity on the engine-parity workloads.

The discipline-endpoint guarantees (``limited(1)`` collapses to ``fifo``,
``limited(inf)`` *is* ``ps``) must extend to the observability layer:
identical physics must produce identical timeline sections, regardless
of which engine — the vectorized per-request loop or the event heap —
recorded them.  Sections are compared with the ``engine`` label and the
exemplars' trace ids (which hash it) removed, since that (by design)
names the discipline that ran; the ids are checked on their own.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cluster import SimulationConfig, StragglerInjector, simulate_reads
from repro.cluster.network import GoodputModel
from repro.common import ClusterSpec
from repro.obs import TimelineConfig
from repro.obs.causal import request_trace_id
from repro.obs.timeline import PartitionLog
from repro.policies import SPCachePolicy
from repro.workloads import paper_fileset, poisson_trace
from repro.workloads.bing import BingStragglerProfile


def _shared_scenario():
    """Same shape as ``test_engine_parity._shared_scenario``: the huge
    client NIC keeps the client cap from binding, which is what makes
    ``limited(1)`` equivalent to the FIFO model."""
    cluster = ClusterSpec(n_servers=5, bandwidth=1e8, client_bandwidth=1e15)
    pop = paper_fileset(30, size_mb=20, zipf_exponent=1.1, total_rate=8.0)
    policy = SPCachePolicy(pop, cluster, alpha=2e-7, seed=5)
    trace = poisson_trace(pop, n_requests=300, seed=11)
    return trace, policy, cluster


def _run(discipline, **overrides):
    trace, policy, cluster = _shared_scenario()
    base = dict(
        discipline=discipline,
        jitter="deterministic",
        goodput=None,
        seed=23,
        observers=(TimelineConfig(),),
    )
    base.update(overrides)
    return simulate_reads(trace, policy, cluster, SimulationConfig(**base))


def _canonical(section):
    data = dict(section)
    data.pop("engine")
    data["tail"] = dict(data["tail"])
    data["tail"]["exemplars"] = [
        {k: v for k, v in e.items() if k != "trace_id"}
        for e in data["tail"]["exemplars"]
    ]
    return json.dumps(data, sort_keys=True)


def _assert_trace_ids(result):
    """Each exemplar's trace id hashes its scheme, engine, request and
    the run's workload fingerprint."""
    section = result.sections["timeline"]
    run_key = PartitionLog(result.n_requests).split(
        result.arrival_times, result.file_ids, result.latencies
    ).run_key
    for e in section["tail"]["exemplars"]:
        assert e["trace_id"] == request_trace_id(
            section["scheme"], section["engine"], e["req"], run_key
        )


def test_limited_inf_timeline_is_exactly_ps():
    """The two heap configurations must agree byte for byte."""
    ps_run, inf_run = _run("ps"), _run("limited(inf)")
    ps = ps_run.sections["timeline"]
    inf = inf_run.sections["timeline"]
    assert _canonical(inf) == _canonical(ps)
    _assert_trace_ids(ps_run)
    _assert_trace_ids(inf_run)


def test_limited_inf_timeline_matches_ps_with_stragglers_and_jitter():
    kwargs = dict(
        jitter="exponential",
        goodput=GoodputModel(),
        stragglers=StragglerInjector(BingStragglerProfile(probability=0.2)),
    )
    ps = _run("ps", **kwargs).sections["timeline"]
    inf = _run("limited(inf)", **kwargs).sections["timeline"]
    assert _canonical(inf) == _canonical(ps)


def test_limited_one_timeline_matches_fifo():
    """c=1 reproduces the FIFO physics; the engines record differently
    (vectorized blocks vs. event-heap scalars), so series agree to float
    tolerance."""
    fifo = _run("fifo").sections["timeline"]
    lim1 = _run("limited(1)").sections["timeline"]
    assert lim1["window_s"] == pytest.approx(fifo["window_s"])
    assert lim1["n_windows"] == fifo["n_windows"]
    for key in ("bytes", "busy_s", "queue_depth"):
        np.testing.assert_allclose(
            np.asarray(lim1[key]),
            np.asarray(fifo[key]),
            atol=1e-6,
            err_msg=key,
        )
    att_f = fifo["tail"]["attribution"]
    att_l = lim1["tail"]["attribution"]
    for key in (
        "mean_tail_latency_s",
        "queueing_s",
        "straggling_s",
        "transfer_s",
        "join_s",
        "p99_s",
    ):
        assert att_l[key] == pytest.approx(att_f[key], abs=1e-9), key
    assert [e["req"] for e in lim1["tail"]["exemplars"]] == [
        e["req"] for e in fifo["tail"]["exemplars"]
    ]


def test_timelines_do_not_perturb_results():
    """Recording a timeline must not change the simulated physics."""
    for discipline in ("fifo", "ps", "limited(3)"):
        plain = _run(discipline, observers=())
        observed = _run(discipline)
        assert np.array_equal(observed.latencies, plain.latencies)
        assert np.array_equal(observed.server_bytes, plain.server_bytes)
        assert "timeline" not in plain.sections and "timeline" in observed.sections
