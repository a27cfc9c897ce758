"""Run manifests: build/validate/write/load round-trip and schema gates."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    CHANNELS,
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    collect_spans,
    config_hash,
    git_sha,
    load_manifest,
    load_manifest_dir,
    span,
    validate_manifest,
    write_manifest,
)
from repro.obs.runinfo import SchemaMismatchError


def _manifest(**overrides):
    base = build_manifest(
        "figX",
        [{"k": 1, "v": 2.5}],
        wall_s=1.25,
        scale=0.5,
        seed=23,
        config={"experiment": "figX", "scale": 0.5},
        metrics={"requests": 10},
    )
    base.update(overrides)
    return base


def test_build_manifest_shape():
    m = _manifest()
    assert m["schema_version"] == MANIFEST_SCHEMA_VERSION
    assert m["experiment"] == "figX"
    assert m["wall_s"] == 1.25
    assert m["rows"] == [{"k": 1, "v": 2.5}]
    assert m["config_hash"] == config_hash({"experiment": "figX", "scale": 0.5})
    assert m["created_unix"] > 0
    assert validate_manifest(m) is m


def test_git_sha_in_this_checkout():
    sha = git_sha()
    assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))


def test_config_hash_is_order_independent():
    a = config_hash({"x": 1, "y": [1, 2]})
    b = config_hash({"y": [1, 2], "x": 1})
    assert a == b
    assert a != config_hash({"x": 2, "y": [1, 2]})


def test_config_hash_keeps_existing_hashes():
    """Configs that hashed before mixed-key support keep their hash."""
    config = {
        "experiment": "fig13",
        "scale": 0.5,
        "rates": [6, 10.5],
        "seeds": {2: "a", 10: "b"},
        "nested": {"z": None, "a": True},
    }
    assert config_hash(config) == (
        "5f4a443c4638eb413eb86b2a58af34935605191b3b592498c957aa681eee82c1"
    )


def test_config_hash_accepts_mixed_key_types():
    """fig02's PAPER dict mixes int and str keys; hashing it used to raise
    ``TypeError: '<' not supported between instances of 'str' and 'int'``."""
    mixed = config_hash({"paper": {1: "a", "x": "b"}})
    assert mixed == config_hash({"paper": {"x": "b", 1: "a"}})
    assert mixed == config_hash({"paper": {"1": "a", "x": "b"}})
    assert mixed != config_hash({"paper": {1: "a", "x": "c"}})
    assert config_hash({"p": [{None: 1, 2.5: 2, "k": 3}]})


def test_build_manifest_accepts_span_records():
    with collect_spans() as collector:
        with span("root"):
            with span("leaf"):
                pass
    m = build_manifest("figY", [], wall_s=0.0, spans=collector.records)
    assert [s["name"] for s in m["spans"]] == ["leaf", "root"]
    assert all("span_id" in s and "wall_s" in s for s in m["spans"])


def test_write_and_load_roundtrip(tmp_path):
    m = _manifest()
    path = write_manifest(m, tmp_path / "figX.json")
    loaded = load_manifest(path)
    assert loaded == json.loads(json.dumps(m, default=str))


def test_written_manifest_reads_back_as_the_indented_encoding(tmp_path):
    """One top-level key per line, compact values: ``json.load`` gives what
    an ``indent=2`` file of the same manifest gives, and the manifest
    readers (``load_manifest_dir``, the CLI's section loader) take it."""
    from pathlib import PurePosixPath

    from repro.cli import _load_sections
    from repro.obs.dash import parse_json_lines
    from repro.obs.sections import TIMELINES

    section = {"scheme": "sp-cache", "engine": "ps", "n_windows": 2,
               "tail": [{"latency_s": float("inf"), "note": "é\nx"}],
               "ratio": float("nan"), "where": PurePosixPath("/x/y")}
    m = _manifest(timelines=[section], rows=[{"k": 1, "v": -0.0, "s": "a,b"}])
    path = write_manifest(m, tmp_path / "figX.json")
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == "{" and lines[-1] == "}"
    assert [line.split(":", 1)[0] for line in lines[1:-1]] == [
        json.dumps(key) for key in m
    ]
    indented = json.loads(json.dumps(m, indent=2, default=str))
    loaded = json.loads(text)
    # NaN != NaN, so compare the re-encodings.
    assert json.dumps(loaded) == json.dumps(indented)
    assert json.dumps(load_manifest(path)) == json.dumps(indented)
    assert list(load_manifest_dir(tmp_path)[0]) == ["figX"]
    sections, traced = _load_sections(str(path), TIMELINES)
    assert not traced and sections[0]["scheme"] == "sp-cache"
    # `repro dash -` reads JSON lines: no line of a manifest is a record.
    assert list(parse_json_lines(text.splitlines())) == []


@pytest.mark.parametrize(
    "overrides",
    [
        {"schema_version": 99},
        {"wall_s": -1.0},
        {"rows": ["not a dict"]},
        {"spans": [{"name": "x"}]},  # missing wall_s
        {"spans": [{"name": "x", "wall_s": -0.1}]},
        {"config": "not a dict"},
        {"experiment": 7},
        {"timelines": "not a list"},
        {"timelines": [{"no": "scheme"}]},
        {"popularity": "not a list"},
        {"popularity": [{"no": "scheme"}]},
        {"slo": "not a list"},
        {"slo": [{"no": "scheme"}]},
        {"causal": "not a list"},
        {"causal": [{"no": "scheme"}]},
        {"membership": "not a list"},
        {"membership": [{"no": "epochs"}]},
        {"peak_rss_bytes": "big"},
        {"peak_rss_bytes": -1},
        {"total_requests": -5},
        {"total_requests": 1.5},
    ],
)
def test_validate_rejects_bad_manifests(overrides):
    with pytest.raises(ValueError):
        validate_manifest(_manifest(**overrides))


def test_v2_manifest_requires_timelines_key():
    m = _manifest()
    del m["timelines"]
    with pytest.raises(ValueError, match="timelines"):
        validate_manifest(m)


@pytest.mark.parametrize("ch", CHANNELS, ids=lambda ch: ch.key)
def test_build_manifest_carries_sections(ch):
    """Every channel's sections round-trip under its key, keys in order."""
    section = {"scheme": "sp-cache", "engine": "fifo", "n_windows": 3}
    if ch.marker_type is list:  # membership: the epochs list
        section[ch.marker] = [{"epoch": 0, "n_servers": 4}]
    m = build_manifest("figZ", [], wall_s=0.0, **{ch.key: [section]})
    assert m[ch.key] == [section]
    assert m["schema_version"] == MANIFEST_SCHEMA_VERSION == 7
    assert all(m[other.key] == [] for other in CHANNELS if other is not ch)
    keys = list(m)
    assert keys[keys.index("metrics") + 1 : keys.index("peak_rss_bytes")] == [
        "timelines", "popularity", "slo", "causal", "membership",
    ]
    assert validate_manifest(m) is m
    assert validate_manifest(json.loads(json.dumps(m))) == m

    bad = dict(m)
    bad[ch.key] = [{"no": ch.marker}]
    with pytest.raises(ValueError, match=rf"{ch.key}\[0\]"):
        validate_manifest(bad)
    bad[ch.key] = {"not": "a list"}
    with pytest.raises(ValueError, match=ch.key):
        validate_manifest(bad)


def test_manifest_records_peak_rss_and_total_requests():
    m = build_manifest(
        "figR",
        [],
        wall_s=0.0,
        metrics={
            "sim.requests{scheme=sp-cache,engine=fifo}": 400.0,
            "sim.requests{scheme=ec-cache,engine=ps}": 250.0,
            "sim.reads{scheme=sp-cache,engine=fifo}": 4000.0,
        },
    )
    assert m["total_requests"] == 650
    # This process certainly has pages resident on Linux/macOS.
    assert m["peak_rss_bytes"] is None or m["peak_rss_bytes"] > 0


def test_manifest_resource_field_overrides():
    m = build_manifest(
        "figR", [], wall_s=0.0, peak_rss=123456, total_requests=9
    )
    assert m["peak_rss_bytes"] == 123456
    assert m["total_requests"] == 9


def test_v6_manifest_is_refused_with_its_version(tmp_path):
    """Only the current schema reads: an older manifest is refused with
    its version named, and a manifest directory does not skip it."""
    m = _manifest()
    m["schema_version"] = 6
    del m["membership"]
    with pytest.raises(SchemaMismatchError, match="schema version 6"):
        validate_manifest(m)
    (tmp_path / "figX.json").write_text(json.dumps(m))
    with pytest.raises(SchemaMismatchError, match=r"figX\.json.*version 6"):
        load_manifest_dir(tmp_path)


def test_validate_rejects_missing_key():
    m = _manifest()
    del m["config_hash"]
    with pytest.raises(ValueError, match="config_hash"):
        validate_manifest(m)


def test_load_manifest_dir_skips_foreign_json(tmp_path):
    write_manifest(_manifest(), tmp_path / "figX.json")
    (tmp_path / "BENCH_x.json").write_text('{"wall_seconds": {}}')
    (tmp_path / "broken.json").write_text("{nope")
    manifests, skipped = load_manifest_dir(tmp_path)
    assert list(manifests) == ["figX"]
    assert sorted(skipped) == ["BENCH_x.json", "broken.json"]
