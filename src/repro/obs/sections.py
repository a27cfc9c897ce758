"""Observer channels: one ambient-config and section-sink protocol.

Every observer that lands a section in run manifests — timelines,
popularity, SLO, causal, membership — moves that section the same way.
A harness installs a config for a block (:meth:`Channel.use`), the
simulator finds it when the run's own config carries none
(:meth:`Channel.current`), the finished run hands its section to every
active sink (:meth:`Channel.publish`), and sinks nest, so a session-level
collector sees everything a per-experiment collector does
(:meth:`Channel.collect`).  A :class:`Channel` is that plumbing, written
once; :data:`CHANNELS` lists the five in manifest key order.  The four
run observers also share one life cycle, :class:`Observer`: the
simulator starts, feeds and finishes them without naming any.

Each observer module builds its channel next to its observer class and
keeps its public names (``use_timeline``, ``collect_slo``, ...) as
aliases of the channel's bound methods.  Adding an observer takes one
:class:`Observer`, its :class:`Channel`, and one entry in each of
:data:`CHANNELS` and :data:`FINISH_ORDER`.

Every check here raises a real exception (never an ``assert``), so the
contract holds under ``python -O``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:
    import numpy as np

    from repro.obs.timeline import PartitionLog
    from repro.obs.tracing import Tracer

__all__ = [
    "CHANNELS",
    "FINISH_ORDER",
    "Channel",
    "Observer",
    "RunEnd",
    "RunStart",
    "finish_observers",
    "observer_configs",
    "start_observers",
]


@dataclass(frozen=True)
class RunStart:
    """What a starting run tells each observer."""

    scheme: str
    engine: str
    n_requests: int
    n_servers: int
    tracer: Tracer


@dataclass(frozen=True)
class RunEnd:
    """What a finished run hands each observer, in arrival order, with
    the run's partition log (``None`` when no observer records) and the
    sections finished so far (by channel name)."""

    times: np.ndarray
    file_ids: np.ndarray
    latencies: np.ndarray
    server_bytes: np.ndarray
    warmup_fraction: float
    log: PartitionLog | None = None
    sections: dict[str, dict[str, Any]] = field(default_factory=dict)


class Observer:
    """One run's observer: :meth:`start` builds it, :meth:`finish` ends it.

    Its roles tell the simulator which hot-path hooks to hoist, so an
    observer that is off costs nothing: ``records`` reads the run's one
    :class:`~repro.obs.timeline.PartitionLog` (:attr:`RunEnd.log`), which
    the simulator builds and feeds through its ``record_*_frame`` hooks
    when any started observer records; ``feeds`` takes every planned
    batch (``attach_cumulative_loads`` of the byte ledger, then
    ``observe_batch``; one per run); ``miss_log`` gets one cache-miss
    flag per request, in arrival order.
    """

    records: bool = False
    feeds: bool = False
    miss_log: list[bool] | None = None
    #: The :class:`RunStart` fields the constructor takes as keywords.
    run_fields: tuple[str, ...] = ("scheme", "engine", "tracer")

    @classmethod
    def start(cls, config: Any, run: RunStart) -> Observer:
        """The observer of one run with ``config``."""
        return cls(config, **{f: getattr(run, f) for f in cls.run_fields})

    def finish(self, end: RunEnd) -> dict[str, Any]:
        """The run's finished section (emitting any trace events)."""
        raise NotImplementedError


class Channel:
    """The ambient config stack and nested section sinks of one observer.

    ``name`` is the key of the channel's section in
    :attr:`~repro.cluster.engine.lifecycle.SimulationResult.sections`,
    ``key`` the manifest key (and :func:`repro.obs.runinfo.build_manifest`
    keyword), ``config`` the config class :meth:`use` accepts (``None``
    for a channel without ambient config), ``observer`` the
    :class:`Observer` a run with that config starts, and every section
    must be a dict whose ``marker`` key holds a ``marker_type`` value.
    """

    def __init__(
        self,
        name: str,
        key: str,
        config: type | None,
        marker: str,
        marker_type: type = str,
        observer: type[Observer] | None = None,
    ) -> None:
        self.name = name
        self.key = key
        self.config = config
        self.marker = marker
        self.marker_type = marker_type
        self.observer = observer
        self._local = threading.local()

    def current(self) -> Any:
        """The innermost config installed by :meth:`use`, or ``None``."""
        stack = getattr(self._local, "configs", None)
        return stack[-1] if stack else None

    def resolve(self, explicit: Any) -> Any:
        """``explicit`` when given, else the ambient :meth:`current`."""
        return explicit if explicit is not None else self.current()

    @contextmanager
    def use(self, config: Any) -> Iterator[Any]:
        """Ambiently enable this observer with ``config`` for the block."""
        if self.config is None:
            raise TypeError(f"the {self.name} channel takes no config")
        if not isinstance(config, self.config):
            raise TypeError(
                f"config must be a {self.config.__name__}, "
                f"got {type(config).__name__}"
            )
        stack = getattr(self._local, "configs", None)
        if stack is None:
            stack = self._local.configs = []
        stack.append(config)
        try:
            yield config
        finally:
            stack.pop()

    @contextmanager
    def collect(
        self, into: list[dict[str, Any]] | None = None
    ) -> Iterator[list[dict[str, Any]]]:
        """Collect every section published inside the block.

        Collectors nest: an inner block does not hide sections from an
        outer one (both receive every publish).
        """
        sink: list[dict[str, Any]] = into if into is not None else []
        sinks = getattr(self._local, "sinks", None)
        if sinks is None:
            sinks = self._local.sinks = []
        sinks.append(sink)
        try:
            yield sink
        finally:
            # Remove by identity: two empty list sinks compare equal, so
            # ``list.remove`` could detach the wrong one.
            for i in range(len(sinks) - 1, -1, -1):
                if sinks[i] is sink:
                    del sinks[i]
                    break

    def publish(self, section: dict[str, Any]) -> None:
        """Hand one finished section to every active collector."""
        self.check(section, f"a {self.name} section")
        for sink in getattr(self._local, "sinks", ()):
            sink.append(section)

    def check(self, section: Any, where: str) -> None:
        """Raise ``ValueError`` naming ``where`` unless ``section`` is one."""
        if not self._is_section(section):
            raise self._malformed(where)

    def check_list(self, sections: Any, where: str) -> None:
        """Raise ``ValueError`` unless ``sections`` is a list of sections."""
        if not isinstance(sections, list):
            raise ValueError(
                f"{where} must be a list of {self.name} sections, "
                f"got {type(sections).__name__}"
            )
        for i, section in enumerate(sections):
            if not self._is_section(section):
                raise self._malformed(f"{where}[{i}]")

    def _is_section(self, section: Any) -> bool:
        return isinstance(section, dict) and isinstance(
            section.get(self.marker), self.marker_type
        )

    def _malformed(self, where: str) -> ValueError:
        return ValueError(
            f"{where} must be an object whose {self.marker!r} is a "
            f"{self.marker_type.__name__}"
        )


# The observer modules build their channels from :class:`Channel` above,
# so they are imported only now (``repro.obs`` imports this module first).
from repro.obs.causal import CAUSAL  # noqa: E402
from repro.obs.membership import MEMBERSHIP  # noqa: E402
from repro.obs.popularity import POPULARITY  # noqa: E402
from repro.obs.slo import SLO  # noqa: E402
from repro.obs.timeline import TIMELINES  # noqa: E402

#: Every observer channel, in manifest key order.
CHANNELS: tuple[Channel, ...] = (TIMELINES, POPULARITY, SLO, CAUSAL, MEMBERSHIP)

#: The run observers' channels, in the order runs finish them: the trace
#: sees timeline windows before causal spans, and SLO evaluation reads
#: the popularity section.
FINISH_ORDER: tuple[Channel, ...] = (TIMELINES, CAUSAL, POPULARITY, SLO)


def observer_configs(observers: tuple) -> dict[str, Any]:
    """Each config in ``observers`` by its channel's name; ``TypeError``
    for a value no channel takes, ``ValueError`` for two of one channel."""
    if not isinstance(observers, tuple):
        raise TypeError(
            f"observers must be a tuple, got {type(observers).__name__}"
        )
    chosen: dict[str, Any] = {}
    for config in observers:
        ch = next((c for c in FINISH_ORDER if isinstance(config, c.config)), None)
        if ch is None:
            names = ", ".join(c.config.__name__ for c in FINISH_ORDER)
            raise TypeError(f"observers take {names}; got {type(config).__name__}")
        if ch.name in chosen:
            raise ValueError(f"observers holds two {ch.config.__name__}s")
        chosen[ch.name] = config
    return chosen


def start_observers(observers: tuple, run: RunStart) -> dict[str, Observer]:
    """Start every enabled observer, by channel name in finish order:
    those with a config in ``observers``, else an ambient one."""
    chosen = observer_configs(observers)
    started: dict[str, Observer] = {}
    for ch in FINISH_ORDER:
        config = ch.resolve(chosen.get(ch.name))
        if config is not None:
            started[ch.name] = ch.observer.start(config, run)
    return started


def finish_observers(
    started: dict[str, Observer], end: RunEnd
) -> dict[str, dict[str, Any]]:
    """Finish :func:`start_observers`' observers in order, publishing
    each section to its channel; returns ``end.sections``."""
    for ch in FINISH_ORDER:
        if ch.name in started:
            section = end.sections[ch.name] = started[ch.name].finish(end)
            ch.publish(section)
    return end.sections
