"""Partition placement strategies.

Random distinct-server placement is SP-Cache's default (Sec. 5.1: once
per-partition loads are uniform, random placement suffices); greedy
least-loaded placement is what Algorithm 2 uses when re-placing repartitioned
files.  Both return a ragged structure: ``servers_of[i]`` is the array of
distinct server ids caching file ``i``'s partitions.
"""

from __future__ import annotations

import numpy as np

from repro.common import make_rng

__all__ = [
    "place_partitions_random",
    "place_partitions_greedy",
    "extend_placement",
    "placement_server_loads",
]


def place_partitions_random(
    ks: np.ndarray,
    n_servers: int,
    seed: int | np.random.Generator | None = None,
) -> list[np.ndarray]:
    """Place each file's ``k_i`` partitions on ``k_i`` distinct random servers."""
    ks = np.asarray(ks, dtype=np.int64)
    if np.any(ks < 1):
        raise ValueError("every file needs at least one partition")
    if np.any(ks > n_servers):
        raise ValueError("k_i may not exceed the server count")
    rng = make_rng(seed)
    # rng.choice without replacement is O(N) per call; permutation slicing
    # keeps it cheap for many small k_i over a moderate N.
    return [rng.permutation(n_servers)[:k] for k in ks]


def place_partitions_greedy(
    ks: np.ndarray,
    loads: np.ndarray,
    n_servers: int,
    initial_server_loads: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Greedy least-loaded placement (Algorithm 2, lines 10-15).

    Files are processed in descending load order (largest first gives the
    classic LPT-style balance); each file's partitions go to the ``k_i``
    least-loaded servers, each receiving ``L_i / k_i`` additional load.
    ``initial_server_loads`` carries the load of files kept in place.
    """
    ks = np.asarray(ks, dtype=np.int64)
    loads = np.asarray(loads, dtype=np.float64)
    if ks.shape != loads.shape:
        raise ValueError("ks and loads must align")
    if np.any(ks > n_servers):
        raise ValueError("k_i may not exceed the server count")
    server_loads = (
        np.zeros(n_servers)
        if initial_server_loads is None
        else np.asarray(initial_server_loads, dtype=np.float64).copy()
    )
    if server_loads.shape != (n_servers,):
        raise ValueError("initial_server_loads must have one entry per server")

    servers_of: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * ks.size
    for i in np.argsort(-loads, kind="stable"):
        k = int(ks[i])
        chosen = np.argpartition(server_loads, k - 1)[:k]
        server_loads[chosen] += loads[i] / k
        servers_of[i] = np.sort(chosen)
    return servers_of


def extend_placement(
    servers_of: list[np.ndarray],
    new_ks: np.ndarray,
    n_servers: int,
    seed: int | np.random.Generator | None = None,
) -> list[np.ndarray]:
    """Grow/shrink an existing placement to new partition counts.

    Files whose ``k_i`` increased gain partitions on fresh random servers
    (distinct from those they already use); files whose count decreased drop
    their trailing partitions.  Existing partitions never move — this is the
    placement discipline of Algorithm 1's search (one placement drawn up
    front, reused across iterations) and the no-noise property the 1 % stop
    rule relies on.
    """
    new_ks = np.asarray(new_ks, dtype=np.int64)
    if len(servers_of) != new_ks.size:
        raise ValueError("servers_of must align with new_ks")
    if np.any(new_ks > n_servers):
        raise ValueError("k_i may not exceed the server count")
    short = np.flatnonzero(new_ks < 1)
    if short.size:
        raise ValueError(f"file {short[0]} needs at least one partition")
    ids = np.concatenate(servers_of) if servers_of else np.empty(0, np.int64)
    sizes = np.fromiter(map(len, servers_of), np.int64, len(servers_of))
    stray = np.flatnonzero((ids < 0) | (ids >= n_servers))
    if stray.size:
        i = int(np.searchsorted(np.cumsum(sizes), stray[0], side="right"))
        raise ValueError(
            f"file {i} holds a server id outside [0, {n_servers})"
        )
    rng = make_rng(seed)
    out = list(servers_of)  # a file whose count holds keeps its array
    for i in np.flatnonzero(new_ks < sizes).tolist():
        out[i] = servers_of[i][: new_ks[i]]
    growing = new_ks > sizes
    grow = np.flatnonzero(growing)
    if not grow.size:
        return out
    # Every growing file's free servers at once: one scatter clears its
    # held servers from a row of a (growing files, N) mask, and the mask's
    # nonzero columns are each row's free servers in ascending order (what
    # setdiff1d(arange(N), old) returns).
    held = ids[np.repeat(growing, sizes)]
    held_n = sizes[grow]
    free = np.ones((grow.size, n_servers), dtype=bool)
    free[np.repeat(np.arange(grow.size), held_n), held] = False
    free_n = np.count_nonzero(free, axis=1)
    # One buffer holds each growing file's segment: its held servers, then
    # its free servers, of which a shuffled prefix is the new partitions.
    seg = held_n + free_n
    starts = np.cumsum(seg) - seg
    in_seg = np.arange(seg.sum()) - np.repeat(starts, seg)
    old_slot = in_seg < np.repeat(held_n, seg)
    flat = np.empty(seg.sum(), dtype=np.result_type(ids, np.intp))
    flat[old_slot] = held
    flat[~old_slot] = np.nonzero(free)[1]
    for i, a, b, end in zip(
        grow.tolist(),
        starts.tolist(),
        (starts + held_n).tolist(),
        (starts + seg).tolist(),
    ):
        # Generator.permutation(x) is a copy of x plus shuffle: shuffling
        # the free servers in place draws the same stream, same order.
        rng.shuffle(flat[b:end])
        out[i] = flat[a : a + int(new_ks[i])]
    return out


def placement_server_loads(
    servers_of: list[np.ndarray],
    loads: np.ndarray,
    n_servers: int,
) -> np.ndarray:
    """Expected per-server load implied by a placement.

    Each server holding one of file ``i``'s ``k_i`` partitions carries
    ``L_i / k_i``; this is the quantity Fig. 12 and Fig. 18 histogram.
    """
    loads = np.asarray(loads, dtype=np.float64)
    if len(servers_of) != loads.size:
        raise ValueError("one server list per file required")
    out = np.zeros(n_servers)
    for i, servers in enumerate(servers_of):
        if servers.size:
            out[servers] += loads[i] / servers.size
    return out
