"""Aggregate run manifests into markdown and flag regressions between runs.

The read side of :mod:`repro.obs.runinfo`: :func:`render_report` turns a
set of ``results/<exp>.json`` manifests into an EXPERIMENTS.md-style
markdown summary, and :func:`diff_manifests` compares two manifest sets —
a fresh run against a baseline — and reports wall-time and metric
regressions beyond configurable thresholds.  ``repro report`` is the CLI
front end; with ``--diff`` it exits non-zero when regressions are found,
which is what the CI smoke job gates on.

Regression rules
----------------
* **wall time** (experiment total, per-span-name totals, and any leaf
  that is itself a wall-clock measurement): regressed when
  ``new > base * (1 + wall_tolerance)`` *and* the absolute growth
  exceeds ``min_wall_s`` — the floor keeps sub-second timing noise from
  tripping the gate on fast experiments.  A leaf counts as wall-clock
  when its key looks like a timer (``*.seconds*``, ``*wall*``,
  ``*time_s``, ``*duration*`` — e.g. the ``span.<name>.seconds``
  histograms in the metrics snapshot), or when the manifest declares
  ``config.timing_rows`` (fig10's rows are measured search times).
* **metrics** (the remaining numeric values in table rows and the
  metrics snapshot): regressed when the relative change exceeds
  ``metric_tolerance`` in either direction — experiment rows are seeded
  and deterministic, so identical configs must produce identical
  numbers.  Non-finite values compare by "both non-finite or regressed".
* **scheduling bookkeeping** (``workload_cache.*`` hit/miss counters) is
  excluded from the diff: cache warmth depends on execution order, so a
  ``run_all --jobs N`` pass stays diff-clean against a serial pass.
* a baseline experiment missing from the new set is always a regression.
* manifests written by **different schema versions** do not diff:
  :func:`diff_manifests` raises :class:`SchemaMismatchError` instead —
  regenerate both sets with the same build.  (Loading already refuses
  any manifest but the current schema,
  :func:`repro.obs.runinfo.validate_manifest`.)
"""

from __future__ import annotations

import math
import re
from typing import Any

from repro.obs.runinfo import SchemaMismatchError

__all__ = [
    "SchemaMismatchError",
    "diff_manifests",
    "render_diff",
    "render_report",
]

#: Diff thresholds (overridable per call / via CLI flags).
WALL_TOLERANCE = 0.5  # +50 % wall time
METRIC_TOLERANCE = 1e-6  # seeded runs reproduce exactly; allow float dust
MIN_WALL_S = 0.25  # ignore absolute wall growth below this


def _fmt(value: Any) -> str:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.01:
        return f"{value:.4g}"
    return f"{value:.4f}".rstrip("0").rstrip(".")


def _markdown_table(rows: list[dict[str, Any]]) -> str:
    if not rows:
        return "_(no rows)_"
    columns = list(rows[0].keys())
    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(_fmt(row.get(c, "")) for c in columns) + " |"
        )
    return "\n".join(lines)


def _span_totals(manifest: dict[str, Any]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for s in manifest.get("spans", []):
        name = s.get("name", "?")
        totals[name] = totals.get(name, 0.0) + float(s.get("wall_s", 0.0))
    return dict(sorted(totals.items()))


def _peak_rss_mb(manifest: dict[str, Any]) -> Any:
    """Schema-v4 ``peak_rss_bytes`` as MiB, or ``-`` where unrecorded."""
    rss = manifest.get("peak_rss_bytes")
    if rss is None:
        return "-"
    return f"{float(rss) / (1024 * 1024):.0f}"


def _req_per_s(manifest: dict[str, Any]) -> Any:
    """Simulated-request throughput: v4 ``total_requests`` over wall_s."""
    total = manifest.get("total_requests")
    wall = float(manifest.get("wall_s") or 0.0)
    if total is None or not total or wall <= 0:
        return "-"
    return f"{float(total) / wall:.0f}"


def render_report(manifests: dict[str, dict[str, Any]]) -> str:
    """Render a manifest set as one markdown document."""
    lines = ["# Experiment report", ""]
    if not manifests:
        lines.append("_(no manifests)_")
        return "\n".join(lines) + "\n"
    shas = {m.get("git_sha") for m in manifests.values()}
    sha = shas.pop() if len(shas) == 1 else "mixed"
    lines.append(
        f"{len(manifests)} experiment(s), git `{(sha or 'unknown')[:12]}`."
    )
    lines.append("")
    summary = [
        {
            "experiment": name,
            "rows": len(m["rows"]),
            "wall_s": m["wall_s"],
            "req_per_s": _req_per_s(m),
            "peak_rss_mb": _peak_rss_mb(m),
            "spans": len(m["spans"]),
            "scale": m["scale"] if m["scale"] is not None else "-",
            "config": m["config_hash"][:10],
        }
        for name, m in sorted(manifests.items())
    ]
    lines.append(_markdown_table(summary))
    for name, m in sorted(manifests.items()):
        lines += ["", f"## {name}", "", _markdown_table(m["rows"])]
        totals = _span_totals(m)
        if totals:
            wall = max(m["wall_s"], 1e-12)
            span_rows = [
                {
                    "span": span_name,
                    "wall_s": seconds,
                    "share": f"{min(seconds / wall, 1.0):.0%}",
                }
                for span_name, seconds in sorted(
                    totals.items(), key=lambda kv: -kv[1]
                )[:12]
            ]
            lines += ["", "Spans (total wall seconds by name):", ""]
            lines.append(_markdown_table(span_rows))
        pop_rows = [
            {
                "scheme": s.get("scheme", "?"),
                "requests": s.get("requests", 0),
                "alpha_est": (
                    s["alpha_est"] if s.get("alpha_est") is not None else "-"
                ),
                "top_file": (
                    s["top"][0]["file_id"] if s.get("top") else "-"
                ),
                "drift": sum(
                    1 for a in s.get("alerts", ()) if a.get("kind") == "drift"
                ),
                "hotspot": sum(
                    1
                    for a in s.get("alerts", ())
                    if a.get("kind") == "hotspot"
                ),
            }
            for s in m.get("popularity") or []
        ]
        if pop_rows:
            lines += ["", "Popularity (streaming sketch):", ""]
            lines.append(_markdown_table(pop_rows))
        slo_rows = [
            {
                "scheme": s.get("scheme", "?"),
                "objective": o.get("name", "?"),
                "met": "yes" if o.get("met") else "NO",
                "bad_fraction": o.get("bad_fraction", 0.0),
                "budget": o.get("budget", "-"),
                "budget_left": o.get("budget_remaining", "-"),
                "breaches": o.get("breaches", 0),
            }
            for s in m.get("slo") or []
            for o in s.get("objectives", ())
        ]
        if slo_rows:
            lines += ["", "SLOs (burn-rate evaluation):", ""]
            lines.append(_markdown_table(slo_rows))
        causal_rows = [
            {
                "scheme": s.get("scheme", "?"),
                "requests": s.get("n_requests", 0),
                "conservation": (
                    "ok" if (s.get("conservation") or {}).get("ok") else "NO"
                ),
                "queue_s": (s.get("edges") or {}).get("queue_s", 0.0),
                "service_s": (s.get("edges") or {}).get("service_s", 0.0),
                "transfer_s": (s.get("edges") or {}).get("transfer_s", 0.0),
                "join_s": (s.get("edges") or {}).get("join_s", 0.0),
            }
            for s in m.get("causal") or []
        ]
        if causal_rows:
            lines += ["", "Critical path (causal edge totals):", ""]
            lines.append(_markdown_table(causal_rows))
    return "\n".join(lines) + "\n"


def _numeric_leaves(obj: Any, prefix: str = "") -> dict[str, float]:
    """Flatten nested rows/metrics into ``{path: float}`` for comparison."""
    out: dict[str, float] = {}
    if isinstance(obj, bool):
        return out
    if isinstance(obj, (int, float)):
        out[prefix] = float(obj)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            out.update(_numeric_leaves(value, f"{prefix}.{key}" if prefix else str(key)))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            out.update(_numeric_leaves(value, f"{prefix}[{i}]"))
    return out


#: Leaf keys matching this are wall-clock timers, not exact metrics.
_TIMING_KEY = re.compile(r"\.seconds|wall|time_s\b|duration", re.IGNORECASE)

#: Leaf keys excluded from the diff entirely: scheduling-dependent
#: bookkeeping, not results.  Workload-cache hit/miss splits depend on
#: execution order (a serial pass warms the cache for later experiments;
#: each ``--jobs N`` worker starts cold), so comparing them would make
#: parallel and serial passes spuriously "regress" against each other.
_SCHEDULING_KEY = re.compile(r"\bworkload_cache\.")


def _rel_change(base: float, new: float) -> float:
    if not (math.isfinite(base) and math.isfinite(new)):
        # Both non-finite in the same way is a match; anything else is not.
        same = (
            (math.isnan(base) and math.isnan(new))
            or (math.isinf(base) and math.isinf(new) and base == new)
        )
        return 0.0 if same else math.inf
    return abs(new - base) / max(abs(base), 1e-12)


def diff_manifests(
    base: dict[str, dict[str, Any]],
    new: dict[str, dict[str, Any]],
    *,
    wall_tolerance: float = WALL_TOLERANCE,
    metric_tolerance: float = METRIC_TOLERANCE,
    min_wall_s: float = MIN_WALL_S,
) -> list[dict[str, Any]]:
    """Compare two manifest sets; returns one record per regression.

    Each record has ``experiment``, ``kind`` (``missing`` / ``wall`` /
    ``span_wall`` / ``metric``), ``key``, ``base``, ``new``, ``change``.
    An empty list means the new run is clean.  Raises
    :class:`SchemaMismatchError` when any compared pair was written by
    different manifest schema versions.
    """
    if wall_tolerance < 0 or metric_tolerance < 0 or min_wall_s < 0:
        raise ValueError("diff tolerances must be non-negative")
    for name in sorted(set(base) & set(new)):
        b_ver = base[name].get("schema_version")
        n_ver = new[name].get("schema_version")
        if b_ver != n_ver:
            raise SchemaMismatchError(
                f"cannot diff {name!r}: baseline manifest has schema "
                f"version {b_ver}, new has {n_ver} — regenerate both "
                "manifest sets with the same build before diffing"
            )
    regressions: list[dict[str, Any]] = []

    def _wall_regressed(old_s: float, new_s: float) -> bool:
        return (
            new_s > old_s * (1.0 + wall_tolerance)
            and new_s - old_s > min_wall_s
        )

    for name in sorted(base):
        if name not in new:
            regressions.append(
                {
                    "experiment": name,
                    "kind": "missing",
                    "key": "-",
                    "base": "present",
                    "new": "absent",
                    "change": "-",
                }
            )
            continue
        b, n = base[name], new[name]

        if _wall_regressed(float(b["wall_s"]), float(n["wall_s"])):
            regressions.append(
                {
                    "experiment": name,
                    "kind": "wall",
                    "key": "wall_s",
                    "base": float(b["wall_s"]),
                    "new": float(n["wall_s"]),
                    "change": f"+{_rel_change(b['wall_s'], n['wall_s']):.0%}",
                }
            )
        base_spans, new_spans = _span_totals(b), _span_totals(n)
        for span_name, base_s in base_spans.items():
            new_s = new_spans.get(span_name)
            if new_s is not None and _wall_regressed(base_s, new_s):
                regressions.append(
                    {
                        "experiment": name,
                        "kind": "span_wall",
                        "key": span_name,
                        "base": base_s,
                        "new": new_s,
                        "change": f"+{_rel_change(base_s, new_s):.0%}",
                    }
                )
        timing_rows = bool(
            (b.get("config") or {}).get("timing_rows")
            or (n.get("config") or {}).get("timing_rows")
        )
        for section in ("rows", "metrics"):
            base_vals = _numeric_leaves(b[section], section)
            new_vals = _numeric_leaves(n[section], section)
            for key, base_v in base_vals.items():
                if _SCHEDULING_KEY.search(key):
                    continue
                if key not in new_vals:
                    regressions.append(
                        {
                            "experiment": name,
                            "kind": "metric",
                            "key": key,
                            "base": base_v,
                            "new": "absent",
                            "change": "absent",
                        }
                    )
                    continue
                new_v = new_vals[key]
                is_timer = bool(_TIMING_KEY.search(key)) or (
                    timing_rows and section == "rows"
                )
                if is_timer:
                    if _wall_regressed(base_v, new_v):
                        regressions.append(
                            {
                                "experiment": name,
                                "kind": "wall",
                                "key": key,
                                "base": base_v,
                                "new": new_v,
                                "change": f"+{_rel_change(base_v, new_v):.0%}",
                            }
                        )
                    continue
                change = _rel_change(base_v, new_v)
                if change > metric_tolerance:
                    regressions.append(
                        {
                            "experiment": name,
                            "kind": "metric",
                            "key": key,
                            "base": base_v,
                            "new": new_v,
                            "change": f"{change:.2%}",
                        }
                    )
    return regressions


def render_diff(
    regressions: list[dict[str, Any]],
    n_base: int,
    n_new: int,
) -> str:
    """Markdown summary of a :func:`diff_manifests` result."""
    lines = ["# Manifest diff", ""]
    lines.append(
        f"Compared {n_new} manifest(s) against a {n_base}-manifest baseline: "
        + (
            f"**{len(regressions)} regression(s)**."
            if regressions
            else "no regressions."
        )
    )
    if regressions:
        lines += ["", _markdown_table(regressions)]
    return "\n".join(lines) + "\n"
