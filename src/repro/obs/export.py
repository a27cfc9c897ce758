"""OpenMetrics/Prometheus text exposition for metric snapshots.

The scrape surface of the observability layer: anything that holds
metrics — the flat snapshot dict a run manifest carries (or that
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` returns for a live
registry), or the per-scheme ``simulation_end`` snapshots replayed out
of a JSONL trace — renders to
the `OpenMetrics text format
<https://github.com/OpenObservability/OpenMetrics>`_ so a Prometheus-
compatible collector (or ``promtool``) can ingest it verbatim.

Two renderers, one escaping discipline:

:func:`render_snapshot_openmetrics`
    A flat ``{"name{k=v,...}": value}`` snapshot (manifest ``metrics``
    section): scalar values render as ``unknown``-typed families (the
    snapshot does not record counter-vs-gauge), histogram summary dicts
    as ``summary`` families with ``quantile`` series.
:func:`snapshots_to_openmetrics`
    The ``{scheme: {metric: value}}`` map of
    :func:`repro.obs.replay.metrics_snapshots`: numeric entries become
    ``sim_<metric>`` samples labelled by scheme/engine.

Metric and label *names* are mangled to the exposition charset
(``[a-zA-Z_:][a-zA-Z0-9_:]*``; dots become underscores) and label
*values* are escaped per the spec (``\\``, ``\"``, newline).
:func:`parse_openmetrics` is a small validating parser used by the test
suite as a parse-check — this repo deliberately has no ``prometheus_client``
dependency.
"""

from __future__ import annotations

import re
from typing import Any, Mapping

from repro.obs.metrics import parse_snapshot_key

__all__ = [
    "escape_label_value",
    "mangle_label_name",
    "mangle_metric_name",
    "parse_openmetrics",
    "render_snapshot_openmetrics",
    "snapshots_to_openmetrics",
]

_INVALID_NAME_CHAR = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_LABEL_CHAR = re.compile(r"[^a-zA-Z0-9_]")


def mangle_metric_name(name: str) -> str:
    """Map an internal metric name onto the exposition charset.

    Dots (our namespace separator) and any other invalid character become
    underscores; a leading digit gains an underscore prefix.
    ``sim.latency_seconds`` -> ``sim_latency_seconds``.
    """
    mangled = _INVALID_NAME_CHAR.sub("_", str(name))
    if not mangled or mangled[0].isdigit():
        mangled = "_" + mangled
    return mangled


def mangle_label_name(name: str) -> str:
    """Label names allow no colon; otherwise like :func:`mangle_metric_name`."""
    mangled = _INVALID_LABEL_CHAR.sub("_", str(name))
    if not mangled or mangled[0].isdigit():
        mangled = "_" + mangled
    return mangled


def escape_label_value(value: Any) -> str:
    """Escape a label value per the exposition format spec."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt_value(value: float) -> str:
    """Sample values: integers render bare, floats via repr."""
    f = float(value)
    if f != f:  # NaN
        return "NaN"
    if f in (float("inf"), float("-inf")):
        return "+Inf" if f > 0 else "-Inf"
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _labels_clause(labels: Mapping[str, Any]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{mangle_label_name(k)}="{escape_label_value(v)}"'
        for k, v in sorted(labels.items(), key=lambda kv: str(kv[0]))
    )
    return "{" + body + "}"


def render_snapshot_openmetrics(
    snapshot: Mapping[str, Any],
    extra_labels: Mapping[str, Any] | None = None,
) -> str:
    """Render a flat registry snapshot (manifest ``metrics``) as OpenMetrics.

    Scalar values render as ``unknown``-typed samples (a snapshot does
    not record whether the source was a counter or a gauge); histogram
    summary dicts render as ``summary`` families — ``quantile`` series
    for p50/p95/p99 plus ``_sum``/``_count``.  ``extra_labels`` lands on
    every sample (e.g. ``experiment="fig13"`` when concatenating
    expositions across manifests).
    """
    extra = dict(extra_labels or {})
    families: dict[str, tuple[str, list[str]]] = {}
    for key in sorted(snapshot):
        raw_name, labels = parse_snapshot_key(key)
        value = snapshot[key]
        name = mangle_metric_name(raw_name)
        labels = {**labels, **extra}
        if isinstance(value, Mapping):
            kind, lines = families.setdefault(name, ("summary", []))
            for q, pct in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
                if pct in value:
                    ql = dict(labels)
                    ql["quantile"] = q
                    lines.append(
                        f"{name}{_labels_clause(ql)} "
                        f"{_fmt_value(value[pct])}"
                    )
            lines.append(
                f"{name}_sum{_labels_clause(labels)} "
                f"{_fmt_value(value.get('sum', 0.0))}"
            )
            lines.append(
                f"{name}_count{_labels_clause(labels)} "
                f"{_fmt_value(value.get('count', 0))}"
            )
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            continue  # snapshot rows may carry strings; not samples
        else:
            kind, lines = families.setdefault(name, ("unknown", []))
            lines.append(
                f"{name}{_labels_clause(labels)} {_fmt_value(value)}"
            )
    out: list[str] = []
    for name in sorted(families):
        kind, lines = families[name]
        out.append(f"# TYPE {name} {kind}")
        out.extend(lines)
    out.append("# EOF")
    return "\n".join(out) + "\n"


def snapshots_to_openmetrics(
    snapshots: Mapping[str, Mapping[str, Any]],
) -> str:
    """Render per-scheme ``simulation_end`` snapshots as one exposition.

    ``snapshots`` is what :func:`repro.obs.replay.metrics_snapshots`
    returns for a trace: scheme -> the ``METRIC_SNAPSHOT_KEYS`` row.
    Numeric entries become ``sim_<metric>`` samples labelled by
    ``scheme`` (and ``engine`` when present).
    """
    flat: dict[str, Any] = {}
    for scheme, row in snapshots.items():
        labels = {"scheme": row.get("scheme", scheme)}
        if row.get("engine") is not None:
            labels["engine"] = row["engine"]
        for metric, value in row.items():
            if metric in ("scheme", "engine"):
                continue
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            rendered = ",".join(
                f"{k}={v}" for k, v in sorted(labels.items())
            )
            flat[f"sim.{metric}{{{rendered}}}"] = value
    return render_snapshot_openmetrics(flat)


# -- parse-check -----------------------------------------------------------

_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>[^ ]+)(?: (?P<ts>[0-9.e+-]+))?$"
)
_LABEL_PAIR = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"(?:,|$)'
)
_VALID_TYPES = frozenset(
    {"counter", "gauge", "histogram", "summary", "unknown", "info",
     "stateset", "gaugehistogram"}
)


def _unescape(value: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(value):
        c = value[i]
        if c == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"n": "\n"}.get(nxt, nxt))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def parse_openmetrics(text: str) -> dict[str, dict[str, Any]]:
    """Validate and parse an exposition; the test suite's parse-check.

    Returns ``{family: {"type": ..., "samples": [(name, labels, value)]}}``.
    Raises :class:`ValueError` on malformed lines, an unknown ``# TYPE``,
    a sample preceding its family's type declaration being re-typed, or a
    missing ``# EOF`` terminator.
    """
    families: dict[str, dict[str, Any]] = {}
    lines = text.split("\n")
    saw_eof = False
    for lineno, line in enumerate(lines, 1):
        if saw_eof and line:
            raise ValueError(f"line {lineno}: content after # EOF")
        if not line:
            continue
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line")
            _, _, fam, kind = parts
            if kind not in _VALID_TYPES:
                raise ValueError(
                    f"line {lineno}: unknown metric type {kind!r}"
                )
            if fam in families and families[fam]["type"] != kind:
                raise ValueError(f"line {lineno}: family {fam!r} re-typed")
            families.setdefault(fam, {"type": kind, "samples": []})
            continue
        if line.startswith("#"):
            if not line.startswith(("# HELP ", "# UNIT ")):
                raise ValueError(f"line {lineno}: unexpected comment")
            continue
        m = _SAMPLE_LINE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name = m.group("name")
        labels: dict[str, str] = {}
        body = m.group("labels")
        if body:
            consumed = 0
            for pair in _LABEL_PAIR.finditer(body):
                if pair.start() != consumed:
                    raise ValueError(
                        f"line {lineno}: malformed labels {body!r}"
                    )
                labels[pair.group("name")] = _unescape(pair.group("value"))
                consumed = pair.end()
            if consumed != len(body):
                raise ValueError(f"line {lineno}: malformed labels {body!r}")
        raw = m.group("value")
        try:
            value = float(raw.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric sample value {raw!r}"
            ) from None
        base = name
        for suffix in ("_total", "_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                base = name[: -len(suffix)]
                break
        family = families.setdefault(
            base, {"type": "unknown", "samples": []}
        )
        family["samples"].append((name, labels, value))
    if not saw_eof:
        raise ValueError("exposition is missing the # EOF terminator")
    return families
