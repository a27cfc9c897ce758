"""Declarative experiment registry: every figure is data, not glue.

Each ``fig*`` module (and ``theorem1``) declares itself with the
:func:`experiment` decorator; the resulting :class:`ExperimentSpec`
carries everything the rest of the system previously kept in side-car
structures — the name→runner dict in ``run_all``, the ``_TIMING_ROWS``
and ``_TIMELINE_EXPERIMENTS`` frozensets, the ad-hoc ``PAPER``
expectation dicts — plus the runner's sweep parameters (names, types,
defaults introspected from its signature).  ``run_all``, the ``repro
experiments`` CLI, manifest writing, ``repro report``, and the
EXPERIMENTS.md registry table all read from this one source of truth.

Usage in an experiment module::

    PAPER = {"eta": {...}}

    @experiment(paper=PAPER, timeline=True)
    def run_fig12(scale: float = 1.0, rate: float = 18.0) -> list[dict]:
        ...

The decorator returns the function unchanged (benchmarks and tests keep
calling ``run_fig12(...)`` directly) and attaches the spec as
``run_fig12.spec``.  :func:`load_all` imports every experiment module in
the package so the registry is complete before use; it is idempotent.

Selection (:func:`resolve_names`) accepts comma-separated lists and
shell-style glob patterns (``fig1*``), preserves registry order, and
raises :class:`UnknownExperimentError` — listing the valid names — on a
token that matches nothing.
"""

from __future__ import annotations

import fnmatch
import importlib
import inspect
import pkgutil
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

__all__ = [
    "ExperimentSpec",
    "SweepParam",
    "UnknownExperimentError",
    "all_specs",
    "experiment",
    "get_spec",
    "load_all",
    "registry_table_rows",
    "render_registry_markdown",
    "resolve_names",
    "sync_experiments_md",
]

#: Package submodules that are infrastructure, not experiments.
_INFRA_MODULES = frozenset(
    {"config", "registry", "run_all", "skew_resilience", "workload_cache"}
)

_REGISTRY: dict[str, "ExperimentSpec"] = {}
_LOADED = False


class UnknownExperimentError(KeyError):
    """A selection token matched no registered experiment."""

    def __init__(self, token: str, valid: tuple[str, ...]) -> None:
        self.token = token
        self.valid = valid
        super().__init__(
            f"unknown experiment {token!r}; valid names: {', '.join(valid)}"
        )

    def __str__(self) -> str:  # KeyError quotes its message otherwise
        return self.args[0]


@dataclass(frozen=True)
class SweepParam:
    """One sweepable runner parameter: its name, type, and default."""

    name: str
    type: str
    default: Any

    def json_default(self) -> Any:
        """The default as a JSON-ready value (manifests, tables).

        Scalars and scalar sequences pass through; rich objects (e.g. a
        :class:`~repro.common.ClusterSpec`) collapse to their type name —
        the table documents *that* the knob exists, not its innards.
        """
        if isinstance(self.default, (bool, int, float, str, type(None))):
            return self.default
        if isinstance(self.default, (tuple, list)) and all(
            isinstance(v, (bool, int, float, str)) for v in self.default
        ):
            return list(self.default)
        return f"<{type(self.default).__name__}>"

    def render(self) -> str:
        default = self.json_default()
        if isinstance(default, list):
            default = tuple(default)
        return f"{self.name}={default!r}"


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything the harness needs to know about one experiment.

    ``paper`` is the module's expectation table (the old ``PAPER`` dict);
    ``timing_rows`` marks rows as wall-clock measurements for the
    tolerant diff rule; ``timeline`` enables sim-time timeline recording;
    ``sweep`` lists the runner's tunable parameters beyond ``scale``.
    """

    name: str
    runner: Callable[..., list[dict]]
    description: str
    paper: Mapping[str, Any]
    accepts_scale: bool
    timing_rows: bool = False
    timeline: bool = False
    sweep: tuple[SweepParam, ...] = field(default_factory=tuple)
    module: str = ""

    def run(self, scale: float = 1.0, **params: Any) -> list[dict]:
        """Invoke the runner, forwarding ``scale`` only if it is accepted."""
        known = {p.name for p in self.sweep}
        unknown = set(params) - known
        if unknown:
            raise TypeError(
                f"{self.name} has no sweep parameter(s) "
                f"{', '.join(sorted(unknown))}; declared: "
                f"{', '.join(sorted(known)) or '(none)'}"
            )
        if self.accepts_scale:
            return self.runner(scale=scale, **params)
        return self.runner(**params)

    def describe(self) -> dict[str, Any]:
        """JSON-ready spec metadata for run manifests (``config.spec``)."""
        return {
            "description": self.description,
            "paper": dict(self.paper),
            "accepts_scale": self.accepts_scale,
            "timing_rows": self.timing_rows,
            "timeline": self.timeline,
            "sweep": {p.name: {"type": p.type, "default": p.json_default()}
                      for p in self.sweep},
            "module": self.module,
        }


def _first_docstring_line(module_name: str) -> str:
    module = importlib.import_module(module_name)
    doc = inspect.getdoc(module) or ""
    return doc.splitlines()[0].strip() if doc else ""


def _type_name(annotation: Any, default: Any) -> str:
    if annotation is not inspect.Parameter.empty:
        return annotation if isinstance(annotation, str) else getattr(
            annotation, "__name__", str(annotation)
        )
    return type(default).__name__


def _derive_sweep(func: Callable[..., Any]) -> tuple[SweepParam, ...]:
    """Sweep params = every defaulted parameter except ``scale``."""
    params = []
    for p in inspect.signature(func).parameters.values():
        if p.name == "scale" or p.default is inspect.Parameter.empty:
            continue
        params.append(
            SweepParam(
                name=p.name,
                type=_type_name(p.annotation, p.default),
                default=p.default,
            )
        )
    return tuple(params)


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Add one spec; re-registration from the same module is idempotent."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing.module != spec.module:
        raise ValueError(
            f"experiment {spec.name!r} already registered by "
            f"{existing.module}; refusing duplicate from {spec.module}"
        )
    _REGISTRY[spec.name] = spec
    return spec


def experiment(
    *,
    paper: Mapping[str, Any] | None = None,
    timing_rows: bool = False,
    timeline: bool = False,
    name: str | None = None,
    description: str | None = None,
) -> Callable[[Callable[..., list[dict]]], Callable[..., list[dict]]]:
    """Decorator: register ``run_<name>`` as an experiment spec.

    The experiment name defaults to the function name minus its ``run_``
    prefix; the description defaults to the first line of the defining
    module's docstring; ``accepts_scale`` and the sweep-parameter table
    are introspected from the signature.
    """

    def decorate(func: Callable[..., list[dict]]) -> Callable[..., list[dict]]:
        exp_name = name or func.__name__.removeprefix("run_")
        sig = inspect.signature(func)
        spec = ExperimentSpec(
            name=exp_name,
            runner=func,
            description=(
                description
                if description is not None
                else _first_docstring_line(func.__module__)
            ),
            paper=dict(paper or {}),
            accepts_scale="scale" in sig.parameters,
            timing_rows=timing_rows,
            timeline=timeline,
            sweep=_derive_sweep(func),
            module=func.__module__,
        )
        register(spec)
        func.spec = spec  # type: ignore[attr-defined]
        return func

    return decorate


def load_all() -> dict[str, ExperimentSpec]:
    """Import every experiment module; returns the (ordered) registry.

    Experiment modules are every submodule of :mod:`repro.experiments`
    that is not infrastructure — no hand-maintained import list, so a
    new ``figXX`` module is picked up by dropping the file in.
    """
    global _LOADED
    if not _LOADED:
        import repro.experiments as pkg

        for info in pkgutil.iter_modules(pkg.__path__):
            if info.ispkg or info.name in _INFRA_MODULES:
                continue
            importlib.import_module(f"repro.experiments.{info.name}")
        _LOADED = True
    return all_specs()


def all_specs() -> dict[str, ExperimentSpec]:
    """The registry, ordered by experiment name."""
    return {name: _REGISTRY[name] for name in sorted(_REGISTRY)}


def get_spec(name: str) -> ExperimentSpec:
    """Look up one spec; raises :class:`UnknownExperimentError`."""
    load_all()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownExperimentError(name, tuple(sorted(_REGISTRY))) from None


def resolve_names(selection: str | None) -> list[str]:
    """Expand a ``--only`` selection into registry-ordered names.

    ``selection`` is a comma-separated list of names or glob patterns
    (``fig1*``); ``None`` (or ``""``) selects everything.  Order follows
    the registry; duplicates collapse.  A token matching nothing raises
    :class:`UnknownExperimentError` with the valid names.
    """
    names = list(load_all())
    if not selection:
        return names
    chosen: set[str] = set()
    for token in (t.strip() for t in selection.split(",")):
        if not token:
            continue
        matched = [n for n in names if fnmatch.fnmatchcase(n, token)]
        if not matched:
            raise UnknownExperimentError(token, tuple(names))
        chosen.update(matched)
    return [n for n in names if n in chosen]


def registry_table_rows() -> list[dict[str, Any]]:
    """One row per spec: the ``--list`` table and the EXPERIMENTS.md block."""
    rows = []
    for spec in load_all().values():
        rows.append(
            {
                "name": spec.name,
                "scale": "yes" if spec.accepts_scale else "no",
                "timing": "yes" if spec.timing_rows else "no",
                "timeline": "yes" if spec.timeline else "no",
                "paper_keys": ", ".join(str(k) for k in spec.paper) or "-",
                "sweep_params": ", ".join(p.render() for p in spec.sweep)
                or "-",
                "description": spec.description,
            }
        )
    return rows


#: Markers bracketing the autogenerated table in EXPERIMENTS.md.
REGISTRY_TABLE_BEGIN = "<!-- experiment-registry:begin (autogenerated) -->"
REGISTRY_TABLE_END = "<!-- experiment-registry:end -->"


def render_registry_markdown() -> str:
    """The autogenerated EXPERIMENTS.md registry table (with markers)."""
    lines = [
        REGISTRY_TABLE_BEGIN,
        "| name | scale | timing | timeline "
        "| paper expectation keys | sweep parameters | description |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in registry_table_rows():
        lines.append(
            "| "
            + " | ".join(
                str(row[c])
                for c in (
                    "name",
                    "scale",
                    "timing",
                    "timeline",
                    "paper_keys",
                    "sweep_params",
                    "description",
                )
            )
            + " |"
        )
    lines.append(REGISTRY_TABLE_END)
    return "\n".join(lines)


def sync_experiments_md(text: str) -> str:
    """Replace the marker-bracketed registry table inside ``text``.

    Raises ValueError when the markers are missing, so the docs test
    fails loudly instead of silently skipping the sync.
    """
    begin = text.find(REGISTRY_TABLE_BEGIN)
    end = text.find(REGISTRY_TABLE_END)
    if begin == -1 or end == -1 or end < begin:
        raise ValueError(
            "EXPERIMENTS.md is missing the experiment-registry markers"
        )
    end += len(REGISTRY_TABLE_END)
    return text[:begin] + render_registry_markdown() + text[end:]


def _main(argv: list[str] | None = None) -> int:  # pragma: no cover
    """``python -m repro.experiments.registry [--write PATH]``."""
    import argparse
    import pathlib

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write", default=None, metavar="PATH",
        help="rewrite the registry table block inside PATH (EXPERIMENTS.md)",
    )
    args = parser.parse_args(argv)
    if args.write:
        path = pathlib.Path(args.write)
        path.write_text(sync_experiments_md(path.read_text()))
        print(f"registry table synced -> {path}")
    else:
        print(render_registry_markdown())
    return 0


if __name__ == "__main__":  # pragma: no cover
    # ``python -m`` executes this file as ``__main__`` — a *second* module
    # object with its own empty registry.  Delegate to the canonical
    # import so the decorated experiment modules register where we look.
    from repro.experiments import registry as _canonical

    raise SystemExit(_canonical._main())
