"""Run manifests: build/validate/write/load round-trip and schema gates."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
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


def test_v1_manifest_without_timelines_still_loads():
    """Old manifests written before the timelines key keep validating."""
    m = _manifest()
    m["schema_version"] = 1
    del m["timelines"]
    assert validate_manifest(m) is m


def test_build_manifest_carries_timeline_sections():
    section = {"scheme": "sp-cache", "engine": "ps", "n_windows": 3}
    m = build_manifest("figZ", [], wall_s=0.0, timelines=[section])
    assert m["timelines"] == [section]
    assert m["schema_version"] == MANIFEST_SCHEMA_VERSION == 7


def test_build_manifest_carries_causal_sections():
    section = {
        "scheme": "sp-cache",
        "engine": "fifo",
        "conservation": {"ok": True, "max_rel_err": 0.0},
    }
    m = build_manifest("figZ", [], wall_s=0.0, causal=[section])
    assert m["causal"] == [section]
    assert validate_manifest(m) is m


def test_v5_manifest_without_causal_still_loads():
    """Manifests written before the causal key keep validating."""
    m = _manifest()
    m["schema_version"] = 5
    del m["causal"]
    del m["membership"]
    assert validate_manifest(m) is m


def test_build_manifest_carries_membership_sections():
    section = {
        "scheme": "sp-cache",
        "n_epochs": 2,
        "epochs": [{"epoch": 0, "n_servers": 4}, {"epoch": 1, "n_servers": 5}],
    }
    m = build_manifest("figZ", [], wall_s=0.0, membership=[section])
    assert m["membership"] == [section]
    assert validate_manifest(m) is m


def test_v6_manifest_without_membership_still_loads():
    """Manifests written before the membership key keep validating."""
    m = _manifest()
    m["schema_version"] = 6
    del m["membership"]
    assert validate_manifest(m) is m


def test_build_manifest_carries_slo_sections():
    section = {"scheme": "sp-cache", "engine": "fifo", "breaches": 2}
    m = build_manifest("figZ", [], wall_s=0.0, slo=[section])
    assert m["slo"] == [section]
    assert validate_manifest(m) is m


def test_v4_manifest_without_slo_still_loads():
    """Manifests written before the slo key keep validating."""
    m = _manifest()
    m["schema_version"] = 4
    del m["slo"]
    assert validate_manifest(m) is m


def test_build_manifest_carries_popularity_sections():
    section = {"scheme": "sp-cache", "engine": "fifo", "requests": 100}
    m = build_manifest("figZ", [], wall_s=0.0, popularity=[section])
    assert m["popularity"] == [section]
    assert validate_manifest(m) is m


def test_v2_manifest_without_popularity_still_loads():
    """Manifests written before the popularity key keep validating."""
    m = _manifest()
    m["schema_version"] = 2
    del m["popularity"]
    del m["peak_rss_bytes"]
    del m["total_requests"]
    assert validate_manifest(m) is m


def test_v3_manifest_without_resource_fields_still_loads():
    """Manifests written before peak RSS / request totals keep validating."""
    m = _manifest()
    m["schema_version"] = 3
    del m["peak_rss_bytes"]
    del m["total_requests"]
    assert validate_manifest(m) is m


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
