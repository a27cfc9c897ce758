"""Counter-keyed simulation draws: ``u(seed, purpose, request, slot)``.

Every random number a simulation consumes is a pure function of four
integers — the run's 64-bit seed, a *purpose*, the request index and a
slot within the request — computed with a splitmix64 mix over ``uint64``
arrays and returned as a 53-bit uniform on ``[0, 1)``.  No draw depends
on how many draws came before it, so a request reads the same value for
the same ``(purpose, request, slot)`` whatever the batch boundaries, and
the planner needs no stream-replay logic.

===================== ====================== ============================
purpose               request, slot          consumer
===================== ====================== ============================
:data:`PLAN`          request, plan slot     policy ``plan_read(s)``:
                                             EC-Cache shard order (``n``
                                             slots), replica pick (1)
:data:`JITTER`        request, flow position exponential service jitter
:data:`STRAGGLE`      request, flow position per-read straggler test
:data:`FACTOR`        request, flow position Bing slowdown factor
:data:`SERVER_MASK`   0, server id           per-server straggler status
===================== ====================== ============================

The batch planner gathers them for flat flow arrays: :func:`request_keys`
hashes each request of a batch once and :func:`slot_uniforms` finishes
the flows.  :func:`uniforms` is the same computation for broadcast
``(request, slot)`` grids; every op is elementwise, so the two agree bit
for bit, and so do the float transforms on top (``-log1p(-u)``,
``np.interp``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FACTOR",
    "JITTER",
    "PLAN",
    "SERVER_MASK",
    "STRAGGLE",
    "exponential",
    "request_keys",
    "slot_uniforms",
    "uniforms",
]

PLAN = 0
JITTER = 1
STRAGGLE = 2
FACTOR = 3
SERVER_MASK = 4

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GAMMA_U = np.uint64(_GAMMA)
_TO_UNIT = 2.0**-53


def _mix_int(z: int) -> int:
    """splitmix64 finalizer on a Python int (the per-stream constant)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on a ``uint64`` array."""
    z ^= z >> 30
    z *= _M1
    z ^= z >> 27
    z *= _M2
    z ^= z >> 31
    return z


# Wrapping uint64 multiplies are the point; numpy warns about them only
# for 0-d operands.
@np.errstate(over="ignore")
def request_keys(seed: int, purpose: int, requests) -> np.ndarray:
    """Per-request hash of one purpose's stream (any array shape)."""
    base = _mix_int(_mix_int(seed) + (purpose + 1) * _GAMMA)
    z = np.asarray(requests).astype(np.uint64)
    z *= _GAMMA_U
    z += np.uint64(base)
    return _mix(z)


@np.errstate(over="ignore")
def slot_uniforms(keys: np.ndarray, slots) -> np.ndarray:
    """Uniforms on ``[0, 1)`` for ``keys`` and ``slots`` (broadcast)."""
    z = np.asarray(slots).astype(np.uint64) + np.uint64(1)
    z *= _GAMMA_U
    z = z + keys
    _mix(z)
    z >>= 11
    return z.astype(np.float64) * _TO_UNIT


def uniforms(seed: int, purpose: int, requests, slots) -> np.ndarray:
    """``u(seed, purpose, request, slot)`` over broadcast ``requests``/``slots``."""
    return slot_uniforms(request_keys(seed, purpose, requests), slots)


def exponential(u: np.ndarray) -> np.ndarray:
    """Standard exponentials from uniforms on ``[0, 1)`` (inverse CDF)."""
    return -np.log1p(-u)
