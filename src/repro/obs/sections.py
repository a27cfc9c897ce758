"""Observer channels: one ambient-config and section-sink protocol.

Every observer that lands a section in run manifests — timelines,
popularity, SLO, causal, membership — moves that section the same way.
A harness installs a config for a block (:meth:`Channel.use`), the
simulator finds it when the run's own config carries none
(:meth:`Channel.current`), the finished run hands its section to every
active sink (:meth:`Channel.publish`), and sinks nest, so a session-level
collector sees everything a per-experiment collector does
(:meth:`Channel.collect`).  A :class:`Channel` is that plumbing, written
once; :data:`CHANNELS` lists the five in manifest key order.

Each observer module builds its channel next to its config class and
keeps its public names (``use_timeline``, ``collect_slo``, ...) as
aliases of the channel's bound methods.  Adding an observer takes one
:class:`Channel`, one entry in :data:`CHANNELS` and its collector class.

Every check here raises a real exception (never an ``assert``), so the
contract holds under ``python -O``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["CHANNELS", "Channel"]


class Channel:
    """The ambient config stack and nested section sinks of one observer.

    ``name`` is the :class:`~repro.cluster.engine.lifecycle.SimulationConfig`
    and :class:`~repro.cluster.engine.lifecycle.SimulationResult` field,
    ``key`` the manifest key (and :func:`repro.obs.runinfo.build_manifest`
    keyword), ``config`` the config class :meth:`use` accepts (``None``
    for a channel without ambient config), and every section must be a
    dict whose ``marker`` key holds a ``marker_type`` value.
    """

    def __init__(
        self,
        name: str,
        key: str,
        config: type | None,
        marker: str,
        marker_type: type = str,
    ) -> None:
        self.name = name
        self.key = key
        self.config = config
        self.marker = marker
        self.marker_type = marker_type
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
