"""Declarative SLOs with multi-window multi-burn-rate alerting.

The paper's headline claims are statements about *sustained* behaviour —
fig12/13/19 argue that SP-Cache holds tail latency and load balance
continuously, not just in end-of-run aggregates.  This module judges a
run against declarative objectives the way an SRE would judge a serving
system: each objective defines a *bad event* (a request slower than the
latency threshold, a cache miss, a window whose load imbalance exceeds a
bound) and an *error budget* (the fraction of bad events the objective
tolerates), and the evaluator applies the classic multi-window
multi-burn-rate recipe (Beyer et al., *The Site Reliability Workbook*,
ch. 5):

* a **fast** window (2 windows wide) paging when the run burns through
  5% of the whole-run budget at a rate that would exhaust it well
  before the run ends — catches sharp regressions;
* a **slow** window (12 windows wide) warning on sustained low-grade
  burn (10% of the budget) — catches the "slightly over budget forever"
  failure mode.

Burn rate is budget-normalized: ``burn = bad_fraction / budget``, so
``burn > 1`` means the objective is being missed outright and the page
threshold scales as ``budget_fraction * n_windows / horizon_windows``
(``_SEVERITIES``).

Evaluation is **order-insensitive and vectorized**: the ps/limited
flow engine completes requests out of arrival order, so rather than
streaming (which would force a per-completion sort), the monitor buffers
only per-request miss flags on the hot path (one list append inside
:meth:`~repro.cluster.engine.lifecycle.RequestLifecycle.admit`) and does
all window bucketing at finalize time with one ``bincount`` over
``times // window_s`` — the same shape of work the timeline module
already does, keeping enabled-path overhead far under the 5% budget
(gated by ``tests/test_obs/test_overhead.py``).

Alert state transitions emit :data:`~repro.obs.events.SLO_BREACH` /
:data:`~repro.obs.events.SLO_RECOVERED` trace events (sim-time ``ts``)
through the run's :class:`~repro.obs.tracing.Tracer`, bump
``slo.breaches`` / ``slo.recoveries`` counters, and set a
``slo.budget_remaining`` gauge per objective, so ``repro stats``, the
OpenMetrics export, and ``repro dash`` all see them.  Finalized sections
are plain JSON-able dicts landing in run manifests.

Like timelines and popularity, evaluation is off by default per
``SimulationConfig`` but ``run_experiment`` installs
:func:`default_slo_config` ambiently, so every ``@experiment`` inherits
SLO evaluation for free (the default objectives are loose enough that a
healthy run stays quiet).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.obs import events as ev
from repro.obs.metrics import get_registry
from repro.obs.sections import Channel, Observer, RunEnd
from repro.obs.timeline import window_width
from repro.obs.tracing import Tracer, get_tracer

__all__ = [
    "DEFAULT_OBJECTIVES",
    "SLO",
    "SLO_SCHEMA_VERSION",
    "SLOConfig",
    "SLObjective",
    "SLOMonitor",
    "collect_slo",
    "default_slo_config",
    "get_slo_config",
    "parse_objective",
    "parse_slo",
    "publish_slo",
    "slo_from_trace",
    "use_slo",
]

#: Version of the ``slo`` *section* layout (independent of the manifest
#: schema version, which gates the envelope).
SLO_SCHEMA_VERSION = 1

_OBJECTIVE_KINDS = ("latency", "miss", "imbalance")


@dataclass(frozen=True)
class SLObjective:
    """One service-level objective over a run.

    ``kind`` picks the SLI:

    ``latency``
        Bad event: a request whose latency is >= ``threshold`` seconds.
    ``miss``
        Bad event: a cache miss (``threshold`` is unused; the budget IS
        the target miss ratio).
    ``imbalance``
        Bad event: a window whose load-imbalance factor (max/mean bytes
        served) is >= ``threshold``.

    ``budget`` is the tolerated bad-event fraction over the whole run —
    the error budget the burn-rate machinery meters out.
    """

    name: str
    kind: str
    threshold: float = 0.0
    budget: float = 0.01

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("objective name must be a non-empty string")
        if self.kind not in _OBJECTIVE_KINDS:
            raise ValueError(
                f"kind must be one of {_OBJECTIVE_KINDS}, got {self.kind!r}"
            )
        if self.kind != "miss" and not self.threshold > 0:
            raise ValueError(
                f"{self.kind} objective needs a positive threshold"
            )
        if not 0 < self.budget < 1:
            raise ValueError("budget must be in (0, 1)")


#: Loose objectives every ``@experiment`` inherits: quiet on a healthy
#: run, loud on a pathological one.
DEFAULT_OBJECTIVES: tuple[SLObjective, ...] = (
    SLObjective("p99_latency", "latency", threshold=10.0, budget=0.01),
    SLObjective("miss_ratio", "miss", budget=0.5),
    SLObjective("imbalance", "imbalance", threshold=20.0, budget=0.25),
)


_SPEC_RE = re.compile(
    r"^(?P<kind>p99|latency|miss|imbalance)"
    r"(?:<(?P<threshold>[0-9.eE+-]+))?"
    r"(?:@(?P<budget>[0-9.eE+-]+))?$"
)

_SPEC_DEFAULT_BUDGET = {"latency": 0.01, "miss": 0.5, "imbalance": 0.25}


def parse_objective(spec: str) -> SLObjective:
    """One objective from its compact CLI spelling.

    ``p99<0.02`` (alias ``latency<0.02``) -> latency objective at 20 ms;
    ``miss<0.1`` -> miss-ratio objective with budget 0.1 (for misses the
    threshold IS the budget); ``imbalance<3`` -> imbalance objective.
    An optional ``@budget`` suffix overrides the error budget:
    ``p99<0.02@0.001``.
    """
    m = _SPEC_RE.match(spec.strip())
    if m is None:
        raise ValueError(
            f"malformed SLO objective {spec!r} "
            "(expected e.g. 'p99<0.02', 'miss<0.1', 'imbalance<3@0.1')"
        )
    kind = m.group("kind")
    threshold = m.group("threshold")
    budget = m.group("budget")
    if kind in ("p99", "latency"):
        if threshold is None:
            raise ValueError(f"latency objective {spec!r} needs a threshold")
        return SLObjective(
            "p99_latency",
            "latency",
            threshold=float(threshold),
            budget=float(budget) if budget else _SPEC_DEFAULT_BUDGET["latency"],
        )
    if kind == "miss":
        if budget is None and threshold is None:
            raise ValueError(f"miss objective {spec!r} needs a target ratio")
        return SLObjective(
            "miss_ratio",
            "miss",
            budget=float(budget if budget is not None else threshold),
        )
    if threshold is None:
        raise ValueError(f"imbalance objective {spec!r} needs a threshold")
    return SLObjective(
        "imbalance",
        "imbalance",
        threshold=float(threshold),
        budget=float(budget) if budget else _SPEC_DEFAULT_BUDGET["imbalance"],
    )


def parse_slo(spec: str) -> "SLOConfig":
    """A whole :class:`SLOConfig` from a comma-separated objective list.

    ``"p99<0.02,miss<0.5,imbalance<3@0.1"`` — what the ``--slo`` CLI
    flag accepts.  An empty spec raises.
    """
    parts = [p for p in (s.strip() for s in spec.split(",")) if p]
    if not parts:
        raise ValueError("empty SLO spec")
    objectives = tuple(parse_objective(p) for p in parts)
    names = [o.name for o in objectives]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate objectives in SLO spec {spec!r}")
    return SLOConfig(objectives=objectives)


#: The two burn-rate horizons as ``(severity, horizon in windows,
#: budget fraction)``: an alert of that severity opens when the trailing
#: horizon consumes that fraction of the whole-run budget.
_SEVERITIES = (("page", 2, 0.05), ("warn", 12, 0.10))


@dataclass(frozen=True)
class SLOConfig:
    """The objectives one run's SLO evaluation judges.

    SLI windows are :func:`~repro.obs.timeline.window_width` wide, like
    the timeline's; the burn-rate horizons and budgets are
    ``_SEVERITIES``.
    """

    objectives: tuple[SLObjective, ...] = field(
        default_factory=lambda: DEFAULT_OBJECTIVES
    )

    def __post_init__(self) -> None:
        if not isinstance(self.objectives, tuple):
            object.__setattr__(self, "objectives", tuple(self.objectives))
        if not self.objectives:
            raise ValueError("SLOConfig needs at least one objective")
        for obj in self.objectives:
            if not isinstance(obj, SLObjective):
                raise TypeError(
                    f"objectives must be SLObjective, "
                    f"got {type(obj).__name__}"
                )
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError("objective names must be unique")


def default_slo_config() -> SLOConfig:
    """The loose config ``run_experiment`` installs for every experiment."""
    return SLOConfig()


# -- the evaluator ---------------------------------------------------------


def _rolling_sum(values: np.ndarray, span: int) -> np.ndarray:
    """Trailing ``span``-wide rolling sum at every index (shorter head)."""
    c = np.concatenate(([0.0], np.cumsum(values)))
    lo = np.maximum(np.arange(1, values.size + 1) - span, 0)
    return c[1:] - c[lo]


class SLOMonitor(Observer):
    """Order-insensitive SLO evaluator for one simulated run.

    The hot path is :attr:`miss_log` — ``RequestLifecycle.admit`` appends
    one bool per request in arrival order.  Everything else happens once
    in :meth:`evaluate`, which :meth:`finish` calls at the end of the
    run with the run's arrays and the popularity section.
    """

    def __init__(
        self,
        config: SLOConfig,
        *,
        scheme: str = "",
        engine: str = "",
        tracer: Tracer | None = None,
    ) -> None:
        if not isinstance(config, SLOConfig):
            raise TypeError(
                f"config must be an SLOConfig, got {type(config).__name__}"
            )
        self.config = config
        self.scheme = scheme
        self.engine = engine
        self.tracer = tracer if tracer is not None else get_tracer()
        self.miss_log: list[bool] = []

    def finish(self, end: RunEnd) -> dict[str, Any]:
        return self.evaluate(
            end.times,
            end.latencies,
            server_bytes=end.server_bytes,
            popularity=end.sections.get("popularity"),
        )

    # -- per-objective SLI series ---------------------------------------

    def _window_series(
        self,
        objective: SLObjective,
        win: np.ndarray,
        n_windows: int,
        latencies: np.ndarray,
        missed: np.ndarray | None,
        imbalance_windows: np.ndarray | None,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Per-window (bad, total) counts for one objective, or ``None``
        when the run carries no signal for it (e.g. a miss objective with
        no cache configured)."""
        if objective.kind == "latency":
            total = np.bincount(win, minlength=n_windows).astype(np.float64)
            bad = np.bincount(
                win,
                weights=(latencies >= objective.threshold).astype(np.float64),
                minlength=n_windows,
            )
            return bad, total
        if objective.kind == "miss":
            if missed is None:
                return None
            total = np.bincount(win, minlength=n_windows).astype(np.float64)
            bad = np.bincount(
                win,
                weights=missed.astype(np.float64),
                minlength=n_windows,
            )
            return bad, total
        if imbalance_windows is None:
            return None
        bad = (imbalance_windows >= objective.threshold).astype(np.float64)
        total = np.ones_like(bad)
        return bad, total

    # -- burn-rate machinery --------------------------------------------

    def _burn_alerts(
        self,
        objective: SLObjective,
        bad: np.ndarray,
        total: np.ndarray,
        t_starts: np.ndarray,
        window_s: float,
    ) -> tuple[list[dict[str, Any]], dict[str, Any]]:
        """Multi-window multi-burn-rate pass over one objective's series.

        For each severity the threshold is the burn rate that would
        consume ``severity_budget`` of the whole-run error budget within
        its horizon: ``budget_fraction * n_windows / horizon_windows``.
        An alert opens when the trailing-horizon burn crosses the
        threshold and closes (``SLO_RECOVERED``) when it falls back
        under; open alerts at end of run close implicitly but stay
        listed as ``active``.
        """
        n = bad.size
        budget = objective.budget
        emit = self.tracer.enabled
        reg = get_registry()
        lab = {"scheme": self.scheme or "?", "objective": objective.name}
        alerts: list[dict[str, Any]] = []
        breaches = recoveries = 0
        for severity, span, frac in _SEVERITIES:
            span = min(span, n) if n else span
            roll_bad = _rolling_sum(bad, span)
            roll_total = _rolling_sum(total, span)
            with np.errstate(invalid="ignore", divide="ignore"):
                frac_bad = np.where(roll_total > 0, roll_bad / roll_total, 0.0)
            burn = frac_bad / budget
            threshold_burn = frac * n / span if n else np.inf
            threshold_burn = max(threshold_burn, 1.0)
            open_alert: dict[str, Any] | None = None
            for w in range(n):
                ts = float(t_starts[w])
                if burn[w] >= threshold_burn and open_alert is None:
                    open_alert = {
                        "objective": objective.name,
                        "severity": severity,
                        "window": w,
                        "t_start": ts,
                        "t_end": None,
                        "burn": float(burn[w]),
                        "peak_burn": float(burn[w]),
                        "threshold_burn": float(threshold_burn),
                        "active": True,
                    }
                    alerts.append(open_alert)
                    breaches += 1
                    reg.counter("slo.breaches", **lab).inc()
                    if emit:
                        self.tracer.event(
                            ev.SLO_BREACH,
                            ts=ts,
                            scheme=self.scheme,
                            objective=objective.name,
                            severity=severity,
                            burn=float(burn[w]),
                            threshold_burn=float(threshold_burn),
                            window=w,
                        )
                elif open_alert is not None:
                    if burn[w] >= threshold_burn:
                        open_alert["peak_burn"] = max(
                            open_alert["peak_burn"], float(burn[w])
                        )
                    else:
                        open_alert["t_end"] = ts
                        open_alert["active"] = False
                        recoveries += 1
                        reg.counter("slo.recoveries", **lab).inc()
                        if emit:
                            self.tracer.event(
                                ev.SLO_RECOVERED,
                                ts=ts,
                                scheme=self.scheme,
                                objective=objective.name,
                                severity=severity,
                                burn=float(burn[w]),
                                window=w,
                            )
                        open_alert = None
        total_bad = float(bad.sum())
        total_n = float(total.sum())
        bad_fraction = total_bad / total_n if total_n else 0.0
        budget_remaining = (
            1.0 - bad_fraction / budget if total_n else 1.0
        )
        reg.gauge("slo.budget_remaining", **lab).set(budget_remaining)
        summary = {
            "name": objective.name,
            "kind": objective.kind,
            "threshold": objective.threshold,
            "budget": budget,
            "bad": total_bad,
            "total": total_n,
            "bad_fraction": bad_fraction,
            "budget_remaining": budget_remaining,
            "met": bad_fraction <= budget,
            "breaches": breaches,
            "recoveries": recoveries,
        }
        return alerts, summary

    # -- entry point ----------------------------------------------------

    def evaluate(
        self,
        times: np.ndarray,
        latencies: np.ndarray,
        missed: Sequence[bool] | np.ndarray | None = None,
        server_bytes: np.ndarray | None = None,
        popularity: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Judge one finished run; returns the JSON-able ``slo`` section.

        ``times`` are arrival times (any order), ``latencies`` aligned
        per request.  ``missed`` defaults to the monitor's own
        :attr:`miss_log` when the lifecycle fed it.  Imbalance windows
        come from a finalized popularity section's per-window
        ``max_mean`` series when available, else one whole-run window
        from ``server_bytes`` via
        :func:`repro.cluster.metrics.imbalance_factor`.
        """
        from repro.cluster.metrics import imbalance_factor

        times = np.asarray(times, dtype=np.float64)
        latencies = np.asarray(latencies, dtype=np.float64)
        if missed is None and self.miss_log:
            missed = self.miss_log
        missed_arr = (
            np.asarray(missed, dtype=bool) if missed is not None else None
        )
        if missed_arr is not None and missed_arr.size != times.size:
            raise ValueError(
                f"missed has {missed_arr.size} entries for "
                f"{times.size} requests"
            )

        n_req = int(times.size)
        window_s = window_width(float(times.max()) if n_req else 0.0)
        if n_req:
            win = (times // window_s).astype(np.int64)
            n_windows = int(win.max()) + 1
        else:
            win = np.zeros(0, dtype=np.int64)
            n_windows = 0
        t_starts = np.arange(n_windows, dtype=np.float64) * window_s

        # Imbalance SLI: per-window max/mean from the popularity section
        # when it observed windows, else one whole-run pseudo-window.
        imbalance_windows = imb_t_starts = None
        if popularity is not None:
            rows = popularity.get("windows") or ()
            vals = [
                (r["t_start"], r["max_mean"])
                for r in rows
                if r.get("max_mean") is not None
            ]
            if vals:
                imb_t_starts = np.asarray([v[0] for v in vals])
                imbalance_windows = np.asarray([v[1] for v in vals])
        if imbalance_windows is None and server_bytes is not None:
            sb = np.asarray(server_bytes, dtype=np.float64)
            if sb.size and sb.any():
                imbalance_windows = np.asarray([imbalance_factor(sb)])
                imb_t_starts = np.zeros(1)

        alerts: list[dict[str, Any]] = []
        summaries: list[dict[str, Any]] = []
        for objective in self.config.objectives:
            series = self._window_series(
                objective, win, n_windows, latencies, missed_arr,
                imbalance_windows,
            )
            if series is None:
                summaries.append(
                    {
                        "name": objective.name,
                        "kind": objective.kind,
                        "threshold": objective.threshold,
                        "budget": objective.budget,
                        "bad": 0.0,
                        "total": 0.0,
                        "bad_fraction": 0.0,
                        "budget_remaining": 1.0,
                        "met": True,
                        "breaches": 0,
                        "recoveries": 0,
                    }
                )
                continue
            bad, total = series
            starts = (
                imb_t_starts
                if objective.kind == "imbalance" and imb_t_starts is not None
                else t_starts[: bad.size]
            )
            obj_alerts, summary = self._burn_alerts(
                objective, bad, total, starts,
                window_s,
            )
            alerts.extend(obj_alerts)
            summaries.append(summary)

        alerts.sort(key=lambda a: (a["t_start"], a["objective"]))
        return {
            "schema_version": SLO_SCHEMA_VERSION,
            "scheme": self.scheme,
            "engine": self.engine,
            "window_s": window_s,
            "n_windows": n_windows,
            "requests": n_req,
            "objectives": summaries,
            "alerts": alerts,
            "breaches": sum(s["breaches"] for s in summaries),
            "recoveries": sum(s["recoveries"] for s in summaries),
        }


# -- ambient config + section sinks (see repro.obs.sections) --------------

#: The SLO :class:`~repro.obs.sections.Channel`.
SLO = Channel("slo", "slo", SLOConfig, "scheme", observer=SLOMonitor)
get_slo_config = SLO.current
use_slo = SLO.use
collect_slo = SLO.collect
publish_slo = SLO.publish


def slo_from_trace(
    source, config: SLOConfig | None = None
) -> list[dict[str, Any]]:
    """Re-evaluate SLOs from a JSONL trace's ``read``/``read_done`` events.

    One section per scheme found in the trace (sorted by scheme name).
    Miss flags are not recoverable from the trace (``read`` events carry
    no per-request hit bit), so only latency and imbalance objectives
    produce signal; replay monitors never re-emit trace events.
    """
    from repro.obs.popularity import PopularityConfig, popularity_from_trace
    from repro.obs.replay import load_events

    config = config if config is not None else default_slo_config()
    events = list(load_events(source))
    per_scheme: dict[str, tuple[list[float], list[float]]] = {}
    for event in events:
        if event.get("event") != ev.READ_DONE:
            continue
        scheme = str(event.get("scheme", "?"))
        times, lats = per_scheme.setdefault(scheme, ([], []))
        times.append(float(event.get("ts", 0.0)))
        lats.append(float(event.get("latency", 0.0)))
    pop_by_scheme = {
        s.get("scheme", "?"): s
        for s in popularity_from_trace(events, PopularityConfig())
    }
    sections = []
    for scheme in sorted(per_scheme):
        times, lats = per_scheme[scheme]
        monitor = SLOMonitor(
            config, scheme=scheme, engine="trace", tracer=Tracer()
        )
        sections.append(
            monitor.evaluate(
                np.asarray(times),
                np.asarray(lats),
                popularity=pop_by_scheme.get(scheme),
            )
        )
    return sections
