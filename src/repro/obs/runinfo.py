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
``timelines``,       the sections each observer channel published during
``popularity``,      the run, one list per
``slo``, ``causal``, :data:`~repro.obs.sections.CHANNELS` key in registry
``membership``       order (empty when it published none); each entry's
                     channel marker (``scheme``, or the ``epochs`` list
                     for membership) passes
                     :meth:`~repro.obs.sections.Channel.check`
``peak_rss_bytes``   process peak resident set size at manifest build
                     (``resource.getrusage``), or ``None`` where the
                     platform doesn't report it.
``total_requests``   total simulated requests across the experiment's
                     runs (summed from the ``sim.requests`` counters in
                     the metrics snapshot).
===================  ==========================================================

``docs/observability.md`` describes what each section holds.

:func:`validate_manifest` enforces this shape and reads the current
schema only: a manifest of any other version raises
:class:`SchemaMismatchError` naming its version (regenerate it with this
build).  :func:`load_manifest` validates on read so a corrupt or foreign
JSON file fails loudly rather than polluting a report.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterable

from repro.obs.sections import CHANNELS

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "SchemaMismatchError",
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


class SchemaMismatchError(ValueError):
    """A manifest (or a pair of manifest sets) of another schema version."""


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
    **{ch.key: (list,) for ch in CHANNELS},
    "peak_rss_bytes": (int, float, type(None)),
    "total_requests": (int,),
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
    peak_rss: int | None = None,
    total_requests: int | None = None,
    **sections: Iterable[dict[str, Any]],
) -> dict[str, Any]:
    """Assemble and validate one current-schema manifest.

    ``spans`` accepts :class:`~repro.obs.spans.SpanRecord` objects or
    plain dicts; ``config`` is hashed with :func:`config_hash`.  Observer
    sections come in by manifest key, one keyword per
    :data:`~repro.obs.sections.CHANNELS` entry: ``timelines``,
    ``popularity``, ``slo``, ``causal`` and ``membership``.
    ``peak_rss`` defaults to :func:`peak_rss_bytes` measured at build
    time; ``total_requests`` defaults to summing the ``sim.requests``
    counters in ``metrics``.
    """
    unknown = set(sections).difference(ch.key for ch in CHANNELS)
    if unknown:
        raise TypeError(
            f"build_manifest() got unexpected keyword argument(s) "
            f"{', '.join(sorted(unknown))}"
        )
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
    }
    for ch in CHANNELS:
        manifest[ch.key] = [dict(s) for s in sections.get(ch.key, ())]
    manifest["peak_rss_bytes"] = peak_rss
    manifest["total_requests"] = int(total_requests)
    return validate_manifest(manifest)


def validate_manifest(manifest: Any) -> dict[str, Any]:
    """Check the manifest schema; returns ``manifest`` or raises ValueError
    (:class:`SchemaMismatchError` for a manifest of another version)."""
    if not isinstance(manifest, dict):
        raise ValueError(
            f"manifest must be a JSON object, got {type(manifest).__name__}"
        )
    version = manifest.get("schema_version", MANIFEST_SCHEMA_VERSION)
    if version != MANIFEST_SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"manifest has schema version {version!r}; this build reads "
            f"only version {MANIFEST_SCHEMA_VERSION}"
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
    if manifest["wall_s"] < 0:
        raise ValueError("manifest wall_s must be non-negative")
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
    for ch in CHANNELS:
        ch.check_list(manifest[ch.key], f"manifest {ch.key}")
    return manifest


def write_manifest(manifest: dict[str, Any], path: str | Path) -> Path:
    """Validate and write one manifest as JSON, one top-level key per line.

    Each value is written compactly by json's C encoder; ``indent`` would
    force the pure-Python encoder, which on a fig13 manifest is about
    three times slower and writes nearly twice the bytes.  The line per
    key keeps the file greppable, and ``json.load`` reads back what it
    would read from an indented file.
    """
    validate_manifest(manifest)
    encode = json.JSONEncoder(default=str, separators=(",", ":")).encode
    lines = ",\n".join(f"{encode(k)}:{encode(v)}" for k, v in manifest.items())
    path = Path(path)
    path.write_text("{\n" + lines + "\n}\n", encoding="utf-8")
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
    silently ignoring them.  A manifest of another schema version is not
    skipped: its :class:`SchemaMismatchError` propagates, naming the file.
    """
    path = Path(path)
    manifests: dict[str, dict[str, Any]] = {}
    skipped: list[str] = []
    for file in sorted(path.glob("*.json")):
        try:
            manifest = load_manifest(file)
        except SchemaMismatchError as exc:
            raise SchemaMismatchError(f"{file}: {exc}") from None
        except (ValueError, json.JSONDecodeError, OSError):
            skipped.append(file.name)
            continue
        manifests[manifest["experiment"]] = manifest
    return manifests, skipped
