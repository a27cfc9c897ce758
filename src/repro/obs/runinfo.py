"""Run manifests: schema-versioned, machine-readable experiment records.

Every ``run_all`` experiment emits, next to its human-readable
``results/<exp>.txt`` table, one ``results/<exp>.json`` *manifest*: the
structured table rows, the span forest with per-span wall times, the
final metrics-registry snapshot, and enough provenance (git sha, seed,
``--scale``, config hash, schema version) to compare two runs
mechanically.  ``repro report`` (:mod:`repro.obs.report`) aggregates and
diffs these files; CI uploads them as artifacts so the perf trajectory
accumulates.

Schema (version 7) — one flat JSON object:

===================  ==========================================================
``schema_version``   ``7``
``experiment``       experiment name (``fig10``, ``theorem1``, ...)
``created_unix``     ``time.time()`` at manifest build
``git_sha``          ``git rev-parse HEAD`` or ``None`` outside a checkout
``scale``            the ``--scale`` the run used (``None`` if not applicable)
``seed``             the run's base seed (``None`` if not applicable)
``config``           free-form dict of run configuration.  ``run_all``
                     populates it from the declarative experiment
                     registry: ``config.spec`` carries the registered
                     :class:`~repro.experiments.registry.ExperimentSpec`
                     metadata (description, paper-expectation table,
                     timing/timeline flags, sweep parameters), and
                     ``config.timing_rows`` / ``config.timelines``
                     mirror the spec's flags for the diff rules
``config_hash``      sha256 of the canonical-JSON ``config``
``wall_s``           wall seconds of the whole experiment (its root span)
``rows``             the structured table rows (list of dicts)
``spans``            finished spans: ``name``/``span_id``/``parent``/
                     ``start``/``wall_s`` (+ optional ``labels``)
``metrics``          metrics-registry snapshot at end of run
``timelines``        sim-time timeline sections published during the run
                     (:mod:`repro.obs.timeline`); empty list when the
                     experiment records none.  New in version 2.
``popularity``       streaming popularity sections published during the
                     run (:mod:`repro.obs.popularity`): sketched top-K,
                     Zipf-exponent estimate, drift/hot-spot alerts.
                     Empty list when the run observed none.  New in
                     version 3.
``peak_rss_bytes``   process peak resident set size at manifest build
                     (``resource.getrusage``), or ``None`` where the
                     platform doesn't report it.  New in version 4.
``total_requests``   total simulated requests across the experiment's
                     runs (summed from the ``sim.requests`` counters in
                     the metrics snapshot).  New in version 4.
``slo``              SLO evaluation sections published during the run
                     (:mod:`repro.obs.slo`): per-objective budget
                     accounting plus burn-rate breach/recovery alerts.
                     Empty list when the run evaluated none.  New in
                     version 5.
``causal``           causal critical-path sections published during the
                     run (:mod:`repro.obs.causal`): per-scheme edge-type
                     aggregation, conservation-invariant check, and the
                     slowest-K requests with their critical chains.
                     Empty list when the run collected none.  New in
                     version 6.
``membership``       cluster-membership sections published during the run
                     (:mod:`repro.obs.membership`): the epoch/event
                     history of each :class:`~repro.cluster.topology.ClusterTopology`
                     a churn experiment ran against, with per-epoch
                     server sets and (when the experiment recorded them)
                     per-epoch bytes moved.  Empty list for
                     fixed-topology runs.  New in version 7.
===================  ==========================================================

Older manifests still load: readers treat a missing ``timelines`` (v1),
``popularity`` (v1/v2), ``slo`` (v1-v4), ``causal`` (v1-v5), or
``membership`` (v1-v6) as an empty list, and missing
``peak_rss_bytes``/``total_requests`` (v1-v3) as unknown.

:func:`validate_manifest` enforces this shape; :func:`load_manifest`
validates on read so a corrupt or foreign JSON file fails loudly rather
than polluting a report.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "build_manifest",
    "config_hash",
    "git_sha",
    "load_manifest",
    "load_manifest_dir",
    "peak_rss_bytes",
    "total_requests_from_metrics",
    "validate_manifest",
    "write_manifest",
]

MANIFEST_SCHEMA_VERSION = 7

#: schema versions this build can read.
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3, 4, 5, 6, 7)

#: required key -> accepted types (``None`` entries listed explicitly).
_MANIFEST_FIELDS: dict[str, tuple[type, ...]] = {
    "schema_version": (int,),
    "experiment": (str,),
    "created_unix": (int, float),
    "git_sha": (str, type(None)),
    "scale": (int, float, type(None)),
    "seed": (int, type(None)),
    "config": (dict,),
    "config_hash": (str,),
    "wall_s": (int, float),
    "rows": (list,),
    "spans": (list,),
    "metrics": (dict,),
}

#: keys required only from a given schema version onward.
_VERSIONED_FIELDS: dict[str, tuple[int, tuple[type, ...]]] = {
    "timelines": (2, (list,)),
    "popularity": (3, (list,)),
    "peak_rss_bytes": (4, (int, float, type(None))),
    "total_requests": (4, (int,)),
    "slo": (5, (list,)),
    "causal": (6, (list,)),
    "membership": (7, (list,)),
}


def peak_rss_bytes() -> int | None:
    """This process's peak resident set size in bytes, if knowable.

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; platforms
    without :mod:`resource` (or reporting zero) yield ``None``.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if peak <= 0:  # pragma: no cover - platform quirk
        return None
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def total_requests_from_metrics(metrics: dict[str, Any]) -> int:
    """Sum the ``sim.requests`` counters out of a metrics snapshot.

    Snapshot keys render labels inline (``"sim.requests{scheme=...}"``),
    so every series of the counter — one per scheme/engine combination —
    contributes its count.
    """
    total = 0.0
    for key, value in metrics.items():
        if key == "sim.requests" or key.startswith("sim.requests{"):
            total += float(value)
    return int(total)


def git_sha() -> str | None:
    """The current checkout's HEAD sha, or ``None`` when unavailable."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _json_key(key: Any) -> str:
    """The object key ``json.dumps`` writes for a scalar ``key``."""
    return key if isinstance(key, str) else json.dumps(key)


def _sortable(value: Any) -> Any:
    """``value`` with every dict's keys made mutually sortable.

    A dict whose keys already sort (all ``str`` or all numbers) is kept as
    is, so its hash does not change; one that mixes types (fig02's
    ``PAPER`` dict has ``int`` and ``str`` keys) has its keys rewritten to
    the strings JSON would write for them anyway.
    """
    if isinstance(value, dict):
        out = {k: _sortable(v) for k, v in value.items()}
        try:
            sorted(out)
        except TypeError:
            out = {_json_key(k): v for k, v in out.items()}
        return out
    if isinstance(value, (list, tuple)):
        return [_sortable(v) for v in value]
    return value


def config_hash(config: dict[str, Any]) -> str:
    """sha256 over the canonical JSON rendering of ``config``.

    Keys are sorted (mixed-type keys as their JSON strings) and non-JSON
    values fall back to ``str``, so the hash is stable across dict
    ordering and runs.
    """
    canonical = json.dumps(
        _sortable(config), sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _span_dicts(spans: Iterable[Any]) -> list[dict[str, Any]]:
    out = []
    for s in spans:
        out.append(s.to_dict() if hasattr(s, "to_dict") else dict(s))
    return out


def build_manifest(
    experiment: str,
    rows: list[dict[str, Any]],
    *,
    wall_s: float,
    scale: float | None = None,
    seed: int | None = None,
    config: dict[str, Any] | None = None,
    spans: Iterable[Any] = (),
    metrics: dict[str, Any] | None = None,
    timelines: Iterable[dict[str, Any]] = (),
    popularity: Iterable[dict[str, Any]] = (),
    slo: Iterable[dict[str, Any]] = (),
    causal: Iterable[dict[str, Any]] = (),
    membership: Iterable[dict[str, Any]] = (),
    peak_rss: int | None = None,
    total_requests: int | None = None,
) -> dict[str, Any]:
    """Assemble and validate one current-schema manifest.

    ``spans`` accepts :class:`~repro.obs.spans.SpanRecord` objects or
    plain dicts; ``config`` is hashed with :func:`config_hash`;
    ``timelines`` takes sections from :mod:`repro.obs.timeline`,
    ``popularity`` sections from :mod:`repro.obs.popularity`,
    ``slo`` sections from :mod:`repro.obs.slo`, ``causal``
    critical-path sections from :mod:`repro.obs.causal`, and
    ``membership`` topology sections from :mod:`repro.obs.membership`.
    ``peak_rss`` defaults to :func:`peak_rss_bytes` measured at build
    time; ``total_requests`` defaults to summing the ``sim.requests``
    counters in ``metrics``.
    """
    config = dict(config or {})
    metrics = dict(metrics or {})
    if peak_rss is None:
        peak_rss = peak_rss_bytes()
    if total_requests is None:
        total_requests = total_requests_from_metrics(metrics)
    manifest: dict[str, Any] = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "experiment": str(experiment),
        "created_unix": time.time(),
        "git_sha": git_sha(),
        "scale": scale,
        "seed": seed,
        "config": config,
        "config_hash": config_hash(config),
        "wall_s": float(wall_s),
        "rows": [dict(r) for r in rows],
        "spans": _span_dicts(spans),
        "metrics": metrics,
        "timelines": [dict(t) for t in timelines],
        "popularity": [dict(p) for p in popularity],
        "slo": [dict(s) for s in slo],
        "causal": [dict(c) for c in causal],
        "membership": [dict(m) for m in membership],
        "peak_rss_bytes": peak_rss,
        "total_requests": int(total_requests),
    }
    return validate_manifest(manifest)


def validate_manifest(manifest: Any) -> dict[str, Any]:
    """Check the manifest schema; returns ``manifest`` or raises ValueError."""
    if not isinstance(manifest, dict):
        raise ValueError(
            f"manifest must be a JSON object, got {type(manifest).__name__}"
        )
    for key, types in _MANIFEST_FIELDS.items():
        if key not in manifest:
            raise ValueError(f"manifest is missing required key {key!r}")
        if not isinstance(manifest[key], types):
            raise ValueError(
                f"manifest key {key!r} has type "
                f"{type(manifest[key]).__name__}, expected one of "
                f"{'/'.join(t.__name__ for t in types)}"
            )
    if manifest["schema_version"] not in SUPPORTED_SCHEMA_VERSIONS:
        raise ValueError(
            f"unsupported manifest schema_version "
            f"{manifest['schema_version']!r} (this build reads "
            f"{'/'.join(str(v) for v in SUPPORTED_SCHEMA_VERSIONS)})"
        )
    for key, (since, types) in _VERSIONED_FIELDS.items():
        if manifest["schema_version"] < since:
            continue
        if key not in manifest:
            raise ValueError(
                f"manifest is missing required key {key!r} "
                f"(required since schema version {since})"
            )
        if not isinstance(manifest[key], types):
            raise ValueError(
                f"manifest key {key!r} has type "
                f"{type(manifest[key]).__name__}, expected one of "
                f"{'/'.join(t.__name__ for t in types)}"
            )
    if manifest["wall_s"] < 0:
        raise ValueError("manifest wall_s must be non-negative")
    if manifest["schema_version"] >= 4:
        rss = manifest["peak_rss_bytes"]
        if rss is not None and rss < 0:
            raise ValueError("manifest peak_rss_bytes must be non-negative")
        if manifest["total_requests"] < 0:
            raise ValueError("manifest total_requests must be non-negative")
    for i, row in enumerate(manifest["rows"]):
        if not isinstance(row, dict):
            raise ValueError(f"manifest row {i} is not an object")
    for i, s in enumerate(manifest["spans"]):
        if not isinstance(s, dict) or "name" not in s or "wall_s" not in s:
            raise ValueError(
                f"manifest span {i} must be an object with name/wall_s"
            )
        if s["wall_s"] < 0:
            raise ValueError(f"manifest span {i} has negative wall_s")
    for i, section in enumerate(manifest.get("timelines", ())):
        if not isinstance(section, dict) or "scheme" not in section:
            raise ValueError(
                f"manifest timeline {i} must be an object with a scheme"
            )
    for i, section in enumerate(manifest.get("popularity", ())):
        if not isinstance(section, dict) or "scheme" not in section:
            raise ValueError(
                f"manifest popularity section {i} must be an object "
                "with a scheme"
            )
    for i, section in enumerate(manifest.get("slo", ())):
        if not isinstance(section, dict) or "scheme" not in section:
            raise ValueError(
                f"manifest slo section {i} must be an object with a scheme"
            )
    for i, section in enumerate(manifest.get("causal", ())):
        if not isinstance(section, dict) or "scheme" not in section:
            raise ValueError(
                f"manifest causal section {i} must be an object "
                "with a scheme"
            )
    for i, section in enumerate(manifest.get("membership", ())):
        if not isinstance(section, dict) or "epochs" not in section:
            raise ValueError(
                f"manifest membership section {i} must be an object "
                "with an epochs list"
            )
    return manifest


def write_manifest(manifest: dict[str, Any], path: str | Path) -> Path:
    """Validate and write one manifest as pretty-printed JSON."""
    validate_manifest(manifest)
    path = Path(path)
    path.write_text(
        json.dumps(manifest, indent=2, sort_keys=False, default=str) + "\n",
        encoding="utf-8",
    )
    return path


def load_manifest(path: str | Path) -> dict[str, Any]:
    """Read and validate one manifest file."""
    with open(path, "r", encoding="utf-8") as fh:
        return validate_manifest(json.load(fh))


def load_manifest_dir(
    path: str | Path,
) -> tuple[dict[str, dict[str, Any]], list[str]]:
    """Load every valid manifest under ``path`` (non-recursive).

    Returns ``(manifests, skipped)``: manifests keyed by experiment name,
    plus the file names that exist but are not valid manifests (e.g.
    ``BENCH_*.json`` trajectory files) so callers can warn instead of
    silently ignoring them.
    """
    path = Path(path)
    manifests: dict[str, dict[str, Any]] = {}
    skipped: list[str] = []
    for file in sorted(path.glob("*.json")):
        try:
            manifest = load_manifest(file)
        except (ValueError, json.JSONDecodeError, OSError):
            skipped.append(file.name)
            continue
        manifests[manifest["experiment"]] = manifest
    return manifests, skipped
