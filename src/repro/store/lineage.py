"""Lineage-based recovery (the Alluxio mechanism SP-Cache leans on, Sec. 8).

SP-Cache itself is redundancy-free, so a lost partition cannot be rebuilt
from cache contents.  Alluxio's answer, which we reproduce: files are
periodically checkpointed to the under-store, and files not yet persisted
carry a *lineage* record — which parent files and which deterministic
transformation produced them — so they can be recomputed on loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.obs.causal import causal_span
from repro.obs.metrics import get_registry

__all__ = ["FileLostError", "LineageRecord", "LineageGraph", "ServerRemovedError"]


class FileLostError(KeyError):
    """File ``file_id`` is unrecoverable: its cached blocks are gone, it
    is not persisted, and it has no lineage.

    Subclasses :class:`KeyError` so callers that catch ``KeyError`` keep
    working; recovery catches only this type, so any other ``KeyError``
    is a fault that surfaces.
    """

    def __init__(self, file_id: int) -> None:
        super().__init__(file_id)
        self.file_id = file_id

    def __str__(self) -> str:
        return f"file {self.file_id} is lost: not persisted and has no lineage"


class ServerRemovedError(FileLostError):
    """A file is unrecoverable because its hosting server left the cluster.

    Raised instead of a plain :class:`FileLostError` when recovery can
    tell that the blocks were not merely evicted but lived on a worker a
    membership epoch removed — the actionable difference between
    "re-read later" and "this data needs a checkpoint or lineage to ever
    come back".
    """

    def __init__(self, file_id: int, server_id: int) -> None:
        super().__init__(file_id)
        self.server_id = server_id

    def __str__(self) -> str:
        return (
            f"file {self.file_id} is unrecoverable: server {self.server_id} "
            "was removed from the cluster and the file is neither "
            "checkpointed nor covered by lineage"
        )


@dataclass(frozen=True)
class LineageRecord:
    """How to recompute one file from its parents."""

    file_id: int
    parents: tuple[int, ...]
    recompute: Callable[[list[bytes]], bytes]


class LineageGraph:
    """A DAG of lineage records with recursive recovery."""

    def __init__(self) -> None:
        self._records: dict[int, LineageRecord] = {}

    def __contains__(self, file_id: int) -> bool:
        return file_id in self._records

    def register(
        self,
        file_id: int,
        parents: tuple[int, ...],
        recompute: Callable[[list[bytes]], bytes],
    ) -> None:
        """Record a file's derivation.  Cycles are rejected."""
        if file_id in parents:
            raise ValueError("a file cannot be its own parent")
        self._records[file_id] = LineageRecord(file_id, tuple(parents), recompute)
        if self._has_cycle(file_id):
            del self._records[file_id]
            raise ValueError(f"lineage for file {file_id} would create a cycle")

    def _has_cycle(self, start: int) -> bool:
        seen: set[int] = set()
        stack = [start]
        first = True
        while stack:
            node = stack.pop()
            if node == start and not first:
                return True
            first = False
            if node in seen:
                continue
            seen.add(node)
            rec = self._records.get(node)
            if rec:
                stack.extend(rec.parents)
        return False

    def recover(
        self,
        file_id: int,
        read_source: Callable[[int], bytes | None],
        lost_server_of: Callable[[int], int | None] | None = None,
    ) -> bytes:
        """Recompute ``file_id`` bottom-up.

        ``read_source(fid)`` should return the bytes of ``fid`` if they are
        available from cache or the under-store, else ``None``; unavailable
        parents are recovered recursively through their own lineage.
        Raises :class:`FileLostError` when a needed file has neither
        source bytes nor lineage — or, when ``lost_server_of(fid)`` names a
        departed server holding the file's blocks, its subclass
        :class:`ServerRemovedError` so callers can tell a membership loss
        from an eviction.

        Each recursion level opens one ``lineage.recover`` causal span, so
        a traced recovery shows the full bottom-up recomputation chain
        (which parents had to be rebuilt, and how deep the DAG went).
        """
        with causal_span("lineage.recover", file_id=file_id):
            available = read_source(file_id)
            if available is not None:
                return available
            rec = self._records.get(file_id)
            if rec is None:
                if lost_server_of is not None:
                    server_id = lost_server_of(file_id)
                    if server_id is not None:
                        raise ServerRemovedError(file_id, server_id)
                raise FileLostError(file_id)
            get_registry().counter("lineage.recomputes").inc()
            parent_bytes = [
                self.recover(p, read_source, lost_server_of)
                for p in rec.parents
            ]
            return rec.recompute(parent_bytes)
