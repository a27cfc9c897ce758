"""CLI subcommands: argument plumbing and output shape."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

FAST = [
    "--files", "30", "--size-mb", "20", "--rate", "5",
    "--servers", "10", "--requests", "300",
]


def test_simulate_prints_summary(capsys):
    assert main(["simulate", "--scheme", "sp", *FAST]) == 0
    out = capsys.readouterr().out
    assert "mean latency" in out and "sp-cache" in out


def test_simulate_every_scheme(capsys):
    for scheme in ("ec", "replication", "simple", "chunking", "single"):
        assert main(["simulate", "--scheme", scheme, *FAST]) == 0
    out = capsys.readouterr().out
    assert "single-copy" in out


def test_compare_table(capsys):
    assert main(["compare", "--schemes", "sp,ec", *FAST]) == 0
    out = capsys.readouterr().out
    assert "sp-cache" in out and "ec-cache" in out
    assert "mem_overhead_pct" in out


def test_compare_unknown_scheme(capsys):
    assert main(["compare", "--schemes", "sp,bogus", *FAST]) == 2
    assert "unknown scheme" in capsys.readouterr().err


def test_configure(capsys):
    assert main(
        ["configure", "--files", "50", "--size-mb", "50", "--rate", "8",
         "--servers", "10"]
    ) == 0
    out = capsys.readouterr().out
    assert "alpha" in out and "files split" in out


def test_experiments_forwarding(tmp_path, capsys):
    assert main(
        ["experiments", "--only", "fig06", "--out", str(tmp_path)]
    ) == 0
    assert (tmp_path / "fig06.txt").exists()


def test_stragglers_choices_rejected():
    with pytest.raises(SystemExit):
        main(["simulate", "--stragglers", "tornado", *FAST])


def test_simulate_json(capsys):
    assert main(["simulate", "--scheme", "sp", "--json", *FAST]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["scheme"] == "sp-cache"
    assert record["requests"] == 300
    assert record["mean_s"] > 0
    assert record["metrics"]["engine"] in ("fifo", "ps")
    assert record["metrics"]["imbalance_eta"] == pytest.approx(record["eta"])


def test_simulate_seed_reproducible(capsys):
    main(["simulate", "--json", "--seed", "7", *FAST])
    first = capsys.readouterr().out
    main(["simulate", "--json", "--seed", "7", *FAST])
    second = capsys.readouterr().out
    assert json.loads(first) == json.loads(second)
    main(["simulate", "--json", "--seed", "8", *FAST])
    other = json.loads(capsys.readouterr().out)
    assert other["mean_s"] != json.loads(first)["mean_s"]


def test_compare_json(capsys):
    assert main(["compare", "--schemes", "sp,single", "--json", *FAST]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["scheme"] for r in rows] == ["sp-cache", "single-copy"]
    assert all("eta" in r and "mem_overhead_pct" in r for r in rows)


def test_trace_subcommand_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert main(
        ["trace", "--schemes", "sp,single", "--out", str(out), *FAST]
    ) == 0
    assert "traced" in capsys.readouterr().out
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    reads = [r for r in lines if r["event"] == "read"]
    assert len(reads) == 2 * 300  # both schemes, every request
    assert {r["event"] for r in lines} >= {"read", "read_done", "simulation_end"}


def test_stats_subcommand(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    main(["trace", "--schemes", "sp", "--out", str(out), *FAST])
    capsys.readouterr()
    assert main(["stats", str(out), "--timeline", "4", "--per-server"]) == 0
    printed = capsys.readouterr().out
    assert "sp-cache" in printed
    assert "per-server load" in printed
    assert "load timeline" in printed
    assert "event counts" in printed


def test_stats_rejects_traceless_file(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["stats", str(empty)]) == 1
    assert "no read events" in capsys.readouterr().err


def test_stats_bad_inputs_fail_cleanly(tmp_path, capsys):
    assert main(["stats", str(tmp_path / "missing.jsonl")]) == 2
    assert "no such trace file" in capsys.readouterr().err

    # Corrupt lines and field-less reads are skipped, not fatal; with
    # nothing usable left the command still reports the empty trace.
    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_text('{"event": "read"}\n{broken\n')
    assert main(["stats", str(corrupt)]) == 1
    assert "no read events" in capsys.readouterr().err

    good = tmp_path / "ok.jsonl"
    good.write_text("")
    assert main(["stats", str(good), "--timeline", "-3"]) == 2
    assert "--timeline" in capsys.readouterr().err


def test_stats_tolerates_corrupt_and_unknown_records(tmp_path, capsys):
    """A trace with trailing garbage and unknown event kinds still
    replays: bad lines are skipped and unknown kinds are counted."""
    out = tmp_path / "run.jsonl"
    main(["trace", "--schemes", "sp", "--out", str(out), *FAST])
    with out.open("a") as fh:
        fh.write("{broken json\n")
        fh.write('{"event": "future_thing", "ts": 1.0}\n')
        fh.write('["not", "a", "dict"]\n')
        # An older build's flat profiling record: counted, not dropped.
        fh.write('{"event": "profile", "name": "x", "ts": 2.0, "wall_s": 0.1}\n')
    capsys.readouterr()
    assert main(["stats", str(out), "--json"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["summary"][0]["scheme"] == "sp-cache"
    assert payload["unknown_events"] == {"future_thing": 1, "profile": 1}
    assert payload["events"]["profile"] == 1
    # Table mode surfaces the skipped kinds on stderr.
    assert main(["stats", str(out)]) == 0
    assert "future_thing" in capsys.readouterr().err


def test_stats_prints_metrics_snapshot(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    main(["trace", "--schemes", "sp", "--out", str(out), *FAST])
    capsys.readouterr()
    assert main(["stats", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "metrics snapshot" in printed


def test_stats_json_metrics_snapshot_ordering(tmp_path, capsys):
    from repro.cluster.engine.lifecycle import METRIC_SNAPSHOT_KEYS

    out = tmp_path / "run.jsonl"
    main(["trace", "--schemes", "sp,single", "--out", str(out), *FAST])
    capsys.readouterr()
    assert main(["stats", str(out), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["metrics"]) == {"sp-cache", "single-copy"}
    for snapshot in payload["metrics"].values():
        documented = [k for k in snapshot if k in METRIC_SNAPSHOT_KEYS]
        expected = [k for k in METRIC_SNAPSHOT_KEYS if k in snapshot]
        assert documented == expected  # documented keys lead, in order
        assert snapshot["requests"] == 300


def _write_manifests(outdir):
    assert main(
        ["experiments", "--only", "fig06", "--out", str(outdir)]
    ) == 0


def test_report_renders_markdown(tmp_path, capsys):
    _write_manifests(tmp_path)
    capsys.readouterr()
    assert main(["report", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# Experiment report")
    assert "## fig06" in out


def test_report_json_and_out_file(tmp_path, capsys):
    _write_manifests(tmp_path)
    capsys.readouterr()
    assert main(["report", str(tmp_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "fig06" in payload

    target = tmp_path / "REPORT.md"
    assert main(["report", str(tmp_path), "--out", str(target)]) == 0
    assert target.read_text().startswith("# Experiment report")


def test_report_diff_identical_runs_clean(tmp_path, capsys):
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    _write_manifests(base)
    _write_manifests(fresh)
    capsys.readouterr()
    assert main(["report", str(fresh), "--diff", str(base)]) == 0
    assert "no regressions" in capsys.readouterr().out


def test_report_diff_flags_inflated_wall_time(tmp_path, capsys):
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    _write_manifests(base)
    _write_manifests(fresh)
    manifest = json.loads((fresh / "fig06.json").read_text())
    manifest["wall_s"] = manifest["wall_s"] * 10 + 5.0
    (fresh / "fig06.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["report", str(fresh), "--diff", str(base)]) == 1
    out = capsys.readouterr().out
    assert "regression(s)" in out and "wall_s" in out


def test_report_empty_and_missing_dirs(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope")]) == 2
    assert "no such manifest directory" in capsys.readouterr().err
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["report", str(empty)]) == 2
    assert "no run manifests" in capsys.readouterr().err


def test_traced_compare_replays_to_matching_eta(tmp_path, capsys):
    """Acceptance: the JSONL trace of a compare run is sufficient to
    reconstruct per-server loads whose imbalance factor matches the one
    computed in-process from SimulationResult.server_bytes."""
    trace = tmp_path / "cmp.jsonl"
    assert main(
        ["compare", "--schemes", "sp,ec,single", "--json",
         "--trace", str(trace), *FAST]
    ) == 0
    in_process = {
        r["scheme"]: r["eta"] for r in json.loads(capsys.readouterr().out)
    }
    assert main(["stats", str(trace), "--json"]) == 0
    replayed = {
        r["scheme"]: r["eta"]
        for r in json.loads(capsys.readouterr().out)["summary"]
    }
    assert set(replayed) == set(in_process)
    for scheme, eta in in_process.items():
        assert replayed[scheme] == pytest.approx(eta, rel=1e-12)


def _write_timeline_manifest(path):
    """A real (small) manifest carrying timeline sections."""
    from repro.cluster import SimulationConfig, simulate_reads
    from repro.common import ClusterSpec, Gbps
    from repro.obs import TimelineConfig, build_manifest, collect_timelines, write_manifest
    from repro.policies import SPCachePolicy
    from repro.workloads import paper_fileset, poisson_trace

    cluster = ClusterSpec(n_servers=10, bandwidth=Gbps)
    pop = paper_fileset(30, size_mb=20, zipf_exponent=1.1, total_rate=5)
    policy = SPCachePolicy(pop, cluster, seed=5)
    trace = poisson_trace(pop, n_requests=200, seed=11)
    config = SimulationConfig(
        discipline="ps", jitter="deterministic", seed=1,
        observers=(TimelineConfig(),),
    )
    with collect_timelines() as sections:
        simulate_reads(trace, policy, cluster, config)
    manifest = build_manifest(
        "figT", [], wall_s=0.1, timelines=sections
    )
    write_manifest(manifest, path)
    return sections


def test_timeline_subcommand_renders_sparklines(tmp_path, capsys):
    manifest = tmp_path / "figT.json"
    _write_timeline_manifest(manifest)
    assert main(["timeline", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "sp-cache" in out
    assert "bytes/window" in out and "p99 latency (s)" in out
    assert any(ch in out for ch in "▁▂▃▄▅▆▇█")


def test_timeline_subcommand_json(tmp_path, capsys):
    manifest = tmp_path / "figT.json"
    sections = _write_timeline_manifest(manifest)
    assert main(["timeline", str(manifest), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == len(sections) == 1
    entry = payload[0]
    assert entry["scheme"] == "sp-cache"
    assert entry["n_requests"] == 200
    assert [r["series"] for r in entry["series"]] == [
        "bytes/window", "busy frac (max server)",
        "queue depth (mean)", "p99 latency (s)",
    ]


def test_tail_subcommand_table_and_json(tmp_path, capsys):
    manifest = tmp_path / "figT.json"
    _write_timeline_manifest(manifest)
    assert main(["tail", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "queueing" in out and "transfer" in out
    assert "slowest" in out

    assert main(["tail", str(manifest), "--json", "--top", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    att = payload[0]["attribution"]
    total = (
        att["queueing_s"] + att["straggling_s"]
        + att["transfer_s"] + att["join_s"]
    )
    assert total == pytest.approx(att["mean_tail_latency_s"], rel=1e-9)
    assert len(payload[0]["exemplars"]) == 3


def test_timeline_accepts_bare_section_list(tmp_path, capsys):
    sections = _write_timeline_manifest(tmp_path / "unused.json")
    bare = tmp_path / "sections.json"
    bare.write_text(json.dumps(sections))
    assert main(["timeline", str(bare)]) == 0
    assert "sp-cache" in capsys.readouterr().out


def test_timeline_bad_inputs_fail_cleanly(tmp_path, capsys):
    assert main(["timeline", str(tmp_path / "missing.json")]) == 2
    assert "no such file" in capsys.readouterr().err

    not_json = tmp_path / "x.json"
    not_json.write_text("{nope")
    assert main(["timeline", str(not_json)]) == 2
    assert "not JSON" in capsys.readouterr().err

    foreign = tmp_path / "y.json"
    foreign.write_text('{"wall_seconds": 1}')
    assert main(["tail", str(foreign)]) == 2
    assert "neither" in capsys.readouterr().err

    v1 = tmp_path / "v1.json"
    v1.write_text('{"timelines": []}')
    assert main(["tail", str(v1)]) == 2
    assert "no timeline sections" in capsys.readouterr().err


def test_trace_sample_thins_read_pairs(tmp_path):
    out = tmp_path / "sampled.jsonl"
    assert main(
        ["trace", "--schemes", "sp", "--out", str(out), "--sample", "10",
         *FAST]
    ) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    reads = [r for r in lines if r["event"] == "read"]
    dones = [r for r in lines if r["event"] == "read_done"]
    assert len(reads) == 30  # 1-in-10 of 300
    # Both halves of every sampled pair survive.
    assert sorted(r["req"] for r in reads) == sorted(r["req"] for r in dones)
    assert all(r["req"] % 10 == 0 for r in reads)
    # Lifecycle events are never sampled out.
    assert any(r["event"] == "simulation_end" for r in lines)


def test_simulate_sample_matches_unsampled_run(tmp_path, capsys):
    full, thin = tmp_path / "full.jsonl", tmp_path / "thin.jsonl"
    main(["simulate", "--trace", str(full), *FAST])
    main(["simulate", "--trace", str(thin), "--sample", "5", *FAST])
    capsys.readouterr()
    full_reads = [
        json.loads(l) for l in full.read_text().splitlines()
        if '"read"' in l
    ]
    thin_reads = [
        json.loads(l) for l in thin.read_text().splitlines()
        if '"read"' in l
    ]
    assert len(thin_reads) == 60  # 300 / 5
    kept = {r["req"]: r for r in full_reads if r["req"] % 5 == 0}
    assert {r["req"] for r in thin_reads} == set(kept)


def test_sample_rejects_bad_values():
    with pytest.raises(SystemExit):
        main(["trace", "--schemes", "sp", "--out", "/tmp/x", "--sample", "0",
              *FAST])
    with pytest.raises(SystemExit):
        main(["trace", "--schemes", "sp", "--out", "/tmp/x",
              "--sample", "two", *FAST])


def test_trace_sample_exceeding_length_keeps_first_request(tmp_path):
    """--sample N with N >= the trace length keeps exactly request 0."""
    out = tmp_path / "sampled.jsonl"
    assert main(
        ["trace", "--schemes", "sp", "--out", str(out), "--sample", "1000",
         *FAST]
    ) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    reads = [r for r in lines if r["event"] == "read"]
    dones = [r for r in lines if r["event"] == "read_done"]
    assert [r["req"] for r in reads] == [0]
    assert [r["req"] for r in dones] == [0]
    assert any(r["event"] == "simulation_end" for r in lines)


def test_trace_sample_is_deterministic(tmp_path):
    """Two identical sampled runs keep identical simulator events.

    Control-plane events (``scale_iter`` etc.) carry wall-clock
    timestamps, so the determinism contract covers the sim-time stream:
    the same requests survive sampling with the same payloads.
    """
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["trace", "--schemes", "sp,ec", "--sample", "7", "--seed", "3",
            *FAST]
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0

    def sim_events(path):
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        return [
            r for r in lines
            if r["event"] in ("read", "read_done", "simulation_end")
        ]

    first, second = sim_events(a), sim_events(b)
    assert first and first == second


def _write_popularity_manifest(path):
    """A real (small) manifest carrying one popularity section."""
    from repro.cluster import SimulationConfig, simulate_reads
    from repro.common import ClusterSpec, Gbps
    from repro.obs import PopularityConfig, build_manifest, write_manifest
    from repro.policies import SPCachePolicy
    from repro.workloads import paper_fileset, poisson_trace

    cluster = ClusterSpec(n_servers=10, bandwidth=Gbps)
    pop = paper_fileset(30, size_mb=20, zipf_exponent=1.1, total_rate=5)
    policy = SPCachePolicy(pop, cluster, seed=5)
    trace = poisson_trace(pop, n_requests=200, seed=11)
    config = SimulationConfig(
        discipline="fifo", jitter="deterministic", seed=1,
        observers=(
            PopularityConfig(window_requests=50, min_window_count=10),
        ),
    )
    result = simulate_reads(trace, policy, cluster, config)
    manifest = build_manifest(
        "figP", [], wall_s=0.1, popularity=[result.sections["popularity"]]
    )
    write_manifest(manifest, path)
    return result.sections["popularity"]


def test_top_renders_manifest_sections(tmp_path, capsys):
    manifest = tmp_path / "figP.json"
    _write_popularity_manifest(manifest)
    assert main(["top", str(manifest)]) == 0
    out = capsys.readouterr().out
    assert "sp-cache [fifo]" in out
    assert "200 requests" in out
    assert "rank" in out and "est_count" in out
    assert "imbalance (EWMA)" in out
    assert "alerts:" in out


def test_top_json_and_k(tmp_path, capsys):
    manifest = tmp_path / "figP.json"
    section = _write_popularity_manifest(manifest)
    assert main(["top", str(manifest), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    assert payload[0]["scheme"] == section["scheme"] == "sp-cache"
    assert payload[0]["requests"] == 200

    assert main(["top", str(manifest), "--k", "3"]) == 0
    table = capsys.readouterr().out
    assert "| 3 " in table and "| 4 " not in table


def test_top_replays_jsonl_trace(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    assert main(
        ["trace", "--schemes", "sp,single", "--out", str(trace), *FAST]
    ) == 0
    capsys.readouterr()
    assert main(["top", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "sp-cache [trace]" in out and "single-copy [trace]" in out


def test_top_bad_inputs_fail_cleanly(tmp_path, capsys):
    assert main(["top", str(tmp_path / "missing.json")]) == 2
    assert "no such file" in capsys.readouterr().err

    # A JSON object with no popularity/scheme/read events replays to
    # zero sections.
    foreign = tmp_path / "foreign.json"
    foreign.write_text('{"wall_seconds": 1}')
    assert main(["top", str(foreign)]) == 2
    assert "no popularity sections" in capsys.readouterr().err

    # Corrupt lines are skipped by trace replay, leaving zero sections.
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{nope")
    assert main(["top", str(garbage)]) == 2
    assert "no popularity sections" in capsys.readouterr().err

    v2 = tmp_path / "v2.json"
    v2.write_text('{"popularity": []}')
    assert main(["top", str(v2)]) == 2
    assert "no popularity sections" in capsys.readouterr().err


def test_watch_renders_one_frame_and_exits(tmp_path, capsys):
    manifest = tmp_path / "figP.json"
    _write_popularity_manifest(manifest)
    assert main(
        ["watch", str(manifest), "--frames", "1", "--interval", "0"]
    ) == 0
    assert "sp-cache [fifo]" in capsys.readouterr().out

    assert main(
        ["watch", str(tmp_path / "missing.json"), "--frames", "2",
         "--interval", "0"]
    ) == 2
    assert "waiting for popularity data" in capsys.readouterr().out


def test_report_diff_rejects_mismatched_schema_versions(tmp_path, capsys):
    base, fresh = tmp_path / "base", tmp_path / "fresh"
    _write_manifests(base)
    _write_manifests(fresh)
    manifest = json.loads((base / "fig06.json").read_text())
    manifest["schema_version"] = 2
    del manifest["popularity"]
    (base / "fig06.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["report", str(fresh), "--diff", str(base)]) == 2
    err = capsys.readouterr().err
    assert "schema mismatch" in err
    assert "regenerate both" in err


# -- live telemetry surface: dash, openmetrics export, SLO plumbing --------


def _write_trace(tmp_path, schemes="sp"):
    trace = tmp_path / "run.jsonl"
    assert main(
        ["trace", "--schemes", schemes, "--out", str(trace), *FAST]
    ) == 0
    return trace


def test_stats_openmetrics_exposition(tmp_path, capsys):
    from repro.obs import parse_openmetrics

    trace = _write_trace(tmp_path)
    capsys.readouterr()
    assert main(["stats", str(trace), "--format", "openmetrics"]) == 0
    out = capsys.readouterr().out
    families = parse_openmetrics(out)
    assert "sim_requests" in families
    assert 'scheme="sp-cache"' in out
    assert out.endswith("# EOF\n")


def test_stats_slo_reevaluation(tmp_path, capsys):
    trace = _write_trace(tmp_path)
    capsys.readouterr()
    assert main(["stats", str(trace), "--slo", "p99<0.001"]) == 0
    out = capsys.readouterr().out
    assert "SLO evaluation: p99<0.001" in out
    assert "p99_latency" in out and "NO" in out

    assert main(["stats", str(trace), "--slo", "wat<1"]) == 2
    assert "bad --slo spec" in capsys.readouterr().err


def test_stats_renders_traced_slo_breaches(tmp_path, capsys):
    """A run traced with a tight ambient SLO lands breach events that
    `repro stats` surfaces as an alert table."""
    from repro.obs import parse_slo, use_slo

    trace = tmp_path / "run.jsonl"
    with use_slo(parse_slo("p99<0.001")):
        assert main(
            ["trace", "--schemes", "sp", "--out", str(trace), *FAST]
        ) == 0
    capsys.readouterr()
    assert main(["stats", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "SLO alerts (traced)" in out
    assert "slo_breach" in out


def test_report_openmetrics(tmp_path, capsys):
    from repro.obs import parse_openmetrics

    _write_manifests(tmp_path)
    capsys.readouterr()
    assert main(["report", str(tmp_path), "--format", "openmetrics"]) == 0
    out = capsys.readouterr().out
    families = parse_openmetrics(out)
    assert families
    assert 'experiment="fig06"' in out

    target = tmp_path / "metrics.om"
    assert main(
        ["report", str(tmp_path), "--format", "openmetrics",
         "--out", str(target)]
    ) == 0
    assert target.read_text().endswith("# EOF\n")


def test_experiments_forwards_slo(tmp_path):
    """The acceptance scenario: a fig13-style run under a deliberately
    tight p99 objective must land a populated slo section
    with at least one breach."""
    assert main(
        ["experiments", "--only", "fig13", "--scale", "0.05",
         "--out", str(tmp_path), "--slo", "p99<0.001"]
    ) == 0
    manifest = json.loads((tmp_path / "fig13.json").read_text())
    assert manifest["schema_version"] == 7
    assert manifest["slo"]
    assert sum(s["breaches"] for s in manifest["slo"]) >= 1
    assert manifest["config"]["slo"] == "p99<0.001"
    schemes = {s["scheme"] for s in manifest["slo"]}
    assert "sp-cache" in schemes

    assert main(
        ["experiments", "--only", "fig06", "--out", str(tmp_path),
         "--slo", "wat<1"]
    ) == 2


def test_dash_renders_trace(tmp_path, capsys):
    trace = _write_trace(tmp_path)
    capsys.readouterr()
    assert main(["dash", str(trace), "--plain"]) == 0
    out = capsys.readouterr().out
    assert "== sp-cache ==" in out
    assert "servers (" in out and "hot keys:" in out


def test_dash_renders_manifest(tmp_path, capsys):
    # fig06 is an analytic table — no simulation, so nothing to board.
    # fig13 (small scale) exercises the full manifest ingestion path.
    assert main(
        ["experiments", "--only", "fig13", "--scale", "0.05",
         "--out", str(tmp_path)]
    ) == 0
    capsys.readouterr()
    assert main(["dash", str(tmp_path / "fig13.json"), "--plain"]) == 0
    out = capsys.readouterr().out
    assert "== sp-cache ==" in out and "requests=" in out
    assert "servers (" in out


def test_dash_reads_stdin(tmp_path, capsys, monkeypatch):
    import io

    trace = _write_trace(tmp_path)
    capsys.readouterr()
    monkeypatch.setattr("sys.stdin", io.StringIO(trace.read_text()))
    assert main(["dash", "-", "--plain"]) == 0
    assert "== sp-cache ==" in capsys.readouterr().out


def test_dash_follow_renders_final_frame(tmp_path, capsys):
    trace = _write_trace(tmp_path)
    capsys.readouterr()
    assert main(
        ["dash", str(trace), "--follow", "--plain", "--interval", "0.05",
         "--idle-limit", "0.2"]
    ) == 0
    out = capsys.readouterr().out
    assert "== sp-cache ==" in out


def test_dash_bad_inputs_fail_cleanly(tmp_path, capsys):
    assert main(["dash", str(tmp_path / "missing.json"), "--plain"]) == 2
    assert "no such file" in capsys.readouterr().err
    assert main(
        ["dash", str(tmp_path / "missing.jsonl"), "--follow", "--plain",
         "--idle-limit", "0.1"]
    ) == 2
    assert "no such trace file" in capsys.readouterr().err


# -- satellite: top/watch resilience on degenerate traces ------------------


def test_top_empty_trace_file(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["top", str(empty)]) == 2
    assert "no popularity sections" in capsys.readouterr().err


def test_top_truncated_trace_keeps_complete_lines(tmp_path, capsys):
    trace = _write_trace(tmp_path)
    lines = trace.read_text().splitlines()
    truncated = tmp_path / "truncated.jsonl"
    # Cut mid-record: everything before the cut still replays.
    truncated.write_text(
        "\n".join(lines[: len(lines) // 2]) + '\n{"event": "rea'
    )
    assert main(["top", str(truncated)]) == 0
    assert "sp-cache [trace]" in capsys.readouterr().out


def test_top_unknown_event_kinds_are_ignored(tmp_path, capsys):
    trace = _write_trace(tmp_path)
    spiked = tmp_path / "spiked.jsonl"
    spiked.write_text(
        '{"event": "from_the_future", "scheme": "sp-cache"}\n'
        + trace.read_text()
        + '{"event": "also_unknown", "ts": 1}\n'
    )
    assert main(["top", str(spiked)]) == 0
    assert "sp-cache [trace]" in capsys.readouterr().out


def test_watch_empty_then_unknown_trace(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(
        ["watch", str(empty), "--frames", "1", "--interval", "0"]
    ) == 2
    assert "waiting for popularity data" in capsys.readouterr().out

    unknown = tmp_path / "unknown.jsonl"
    unknown.write_text('{"event": "mystery"}\n{"not": "an event"}\n')
    assert main(
        ["watch", str(unknown), "--frames", "1", "--interval", "0"]
    ) == 2
    assert "waiting for popularity data" in capsys.readouterr().out


def test_stats_empty_trace_fails_cleanly(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["stats", str(empty)]) == 1
    assert "no read events" in capsys.readouterr().err


def _causal_trace(tmp_path, name="causal.jsonl"):
    out = tmp_path / name
    assert main(
        ["trace", "--schemes", "sp", "--causal", "--out", str(out), *FAST]
    ) == 0
    return out


def test_critical_renders_trace(tmp_path, capsys):
    trace = _causal_trace(tmp_path)
    capsys.readouterr()
    assert main(["critical", str(trace), "--top", "3"]) == 0
    printed = capsys.readouterr().out
    assert "conservation ok" in printed
    assert "300 DAG(s) rebuilt, 0 dropped" in printed
    assert "slowest 3 critical paths" in printed
    assert "queue_s" in printed


def test_critical_check_and_chrome_export(tmp_path, capsys):
    trace = _causal_trace(tmp_path)
    chrome = tmp_path / "spans.chrome.json"
    capsys.readouterr()
    assert main(
        ["critical", str(trace), "--check", "--chrome", str(chrome)]
    ) == 0
    printed = capsys.readouterr().out
    assert "check ok" in printed
    assert "all span trees complete" in printed
    events = json.loads(chrome.read_text())["traceEvents"]
    phases = {e["ph"] for e in events}
    assert {"X", "s", "f"} <= phases
    flows = [e for e in events if e["ph"] in ("s", "f")]
    assert len([e for e in flows if e["ph"] == "s"]) == len(flows) / 2


def test_critical_reads_manifest_sections(tmp_path, capsys):
    assert main(
        ["simulate", "--scheme", "sp", "--causal", "--json", *FAST]
    ) == 0
    section = json.loads(capsys.readouterr().out)["causal"]
    manifest = tmp_path / "fig.json"
    manifest.write_text(json.dumps({"causal": [section]}))
    assert main(["critical", str(manifest)]) == 0
    assert "conservation ok" in capsys.readouterr().out
    # manifests carry aggregates, not span trees — no Chrome export
    assert main(
        ["critical", str(manifest), "--chrome", str(tmp_path / "c.json")]
    ) == 2
    assert "needs a JSONL trace" in capsys.readouterr().err


def test_critical_check_flags_violations(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{
        "scheme": "sp-cache",
        "conservation": {"ok": False, "max_rel_err": 0.5},
        "edges": {},
    }]))
    assert main(["critical", str(bad), "--check"]) == 1
    assert "conservation violated" in capsys.readouterr().err


def test_critical_bad_inputs_fail_cleanly(tmp_path, capsys):
    assert main(["critical", str(tmp_path / "missing.json")]) == 2
    assert "no such file" in capsys.readouterr().err
    # a trace without cspan events yields no causal sections
    plain = tmp_path / "plain.jsonl"
    main(["trace", "--schemes", "sp", "--out", str(plain), *FAST])
    capsys.readouterr()
    assert main(["critical", str(plain)]) == 2
    capsys.readouterr()
    # request trees whose fields do not parse are dropped, not fatal
    trace = _causal_trace(tmp_path)
    root = {"event": "cspan", "name": "request", "ts": 0.0, "scheme": "sp"}
    with trace.open("a") as fh:
        for i, bad in enumerate(({"k": None}, {"latency_s": "slow"})):
            record = {
                **root, "span_id": f"{i + 1:016x}", "latency_s": 1.0,
                "k": 0, **bad,
            }
            fh.write(json.dumps(record) + "\n")
        fh.write(json.dumps({**root, "span_id": "a" * 16, "latency_s": 1.0,
                             "k": 0}) + "\n")
        fh.write(json.dumps({"event": "cspan", "name": "join", "ts": 1.0,
                             "span_id": "b" * 16,
                             "parent_id": "a" * 16}) + "\n")
    capsys.readouterr()
    assert main(["critical", str(trace), "--top", "3"]) == 0
    assert "300 DAG(s) rebuilt, 3 dropped" in capsys.readouterr().out
    # the Chrome export leaves out the tree whose latency does not parse
    chrome = tmp_path / "bad.causal.json"
    assert main(["critical", str(trace), "--chrome", str(chrome)]) == 0
    printed = capsys.readouterr().out
    assert "1 malformed tree(s) dropped" in printed
    assert "300 DAG(s) rebuilt, 3 dropped" in printed
    spans = [
        e for e in json.loads(chrome.read_text())["traceEvents"]
        if e["ph"] == "X"
    ]
    assert spans and all(isinstance(e["dur"], float) for e in spans)
    assert not any(e["args"].get("latency_s") == "slow" for e in spans)


def test_simulate_causal_table_and_compare_column(capsys):
    assert main(["simulate", "--scheme", "sp", "--causal", *FAST]) == 0
    assert "critical-path edges" in capsys.readouterr().out
    assert main(["compare", "--schemes", "sp,single", "--causal", *FAST]) == 0
    assert "crit_ok" in capsys.readouterr().out


def test_stats_layered_event_table_with_store_kinds(tmp_path, capsys):
    """The traced-event table names each kind's layer, including the
    store-plane kinds and causal spans; recoveries get a summary line."""
    trace = _causal_trace(tmp_path)
    with trace.open("a") as fh:
        fh.write(
            '{"event": "recovery", "ts": 1.0, "file_id": 7,'
            ' "bytes": 100, "wall_s": 0.5}\n'
        )
        fh.write('{"event": "block_put", "ts": 0.5, "file_id": 7}\n')
        fh.write('{"event": "block_evict", "ts": 0.6, "file_id": 3}\n')
    capsys.readouterr()
    assert main(["stats", str(trace), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["recoveries"] == {"count": 1, "bytes": 100, "wall_s": 0.5}
    assert payload["unknown_events"] == {}
    assert main(["stats", str(trace)]) == 0
    printed = capsys.readouterr().out
    assert "lineage recoveries: 1 file(s), 100 bytes" in printed
    for layer, kind in (
        ("store", "recovery"), ("store", "block_put"),
        ("store", "block_evict"), ("causal", "cspan"),
        ("simulator", "read"),
    ):
        assert kind in printed, kind
        assert layer in printed, layer


@pytest.mark.parametrize(
    ("viewer", "doc", "key"),
    [
        ("timeline", {"timelines": None}, "timelines"),
        ("tail", {"timelines": None}, "timelines"),
        ("tail", [{"no": "scheme"}], "[0]"),
        ("critical", {"causal": 5}, "causal"),
        ("top", {"popularity": {"scheme": "x"}}, "popularity"),
        ("dash", {"causal": 5}, "causal"),
        ("dash", {"popularity": [1]}, "popularity[0]"),
        ("dash", {"membership": [{"epochs": 3}]}, "membership[0]"),
        ("dash", {"schema_version": 6, "metrics": {}}, "schema version 6"),
    ],
)
def test_viewers_reject_malformed_sections(tmp_path, capsys, viewer, doc, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    extra = ["--plain"] if viewer == "dash" else []
    assert main([viewer, str(path), *extra]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and key in err
    assert "Traceback" not in err
