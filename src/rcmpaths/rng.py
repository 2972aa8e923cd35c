"""Deterministic, replication-indexed randomness.

Every random quantity in a simulation is a pure function of
``(master seed, replication index)`` plus a draw-specific key, so results do
not depend on iteration order, evaluation laziness, or parallel schedule.

Scheme
------
A 64-bit state is folded through the splitmix64 finalizer once per field::

    h = mix64(seed ^ INIT)
    for field in fields:
        h = mix64((h + GAMMA) ^ field)

Streams (so point draws and edge draws never collide):

* point stream: the two words ``fold(seed, replication, STREAM_POINTS, w)``,
  w = 0, 1, key a Philox generator per replication; the Poisson counts are
  drawn first, then the variates that place the points, in a fixed order.
* edge stream: the uniform deciding the edge of vertex pair ``{i, j}`` is
  folded from ``(replication, STREAM_EDGES, min(i, j), max(i, j))``.  Any
  subset of pairs can therefore be evaluated lazily, in any order, and
  agrees bit-for-bit with a full-matrix realization.
* subseed stream: derives independent master seeds for sweep grid points.

:func:`fold` is the one fold, on Python ints masked to 64 bits.
:func:`pair_uniforms` folds the edge-stream prefixes of many (seed,
replication) pairs, and then the pairs' two indices, in numpy uint64, whose
arithmetic wraps modulo 2**64 the same way, so one pair or a million give
the same bits;
:func:`points_keys` folds the point-stream keys of a whole block of
replications the same way; it is the only point-stream fold the samplers
use, even for one replication.
"""
from __future__ import annotations

import numpy as np

_U64 = np.uint64
_GAMMA = _U64(0x9E3779B97F4A7C15)
_C1 = _U64(0xBF58476D1CE4E5B9)
_C2 = _U64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1

STREAM_POINTS = 1
STREAM_EDGES = 2
STREAM_SUBSEED = 3


def _mix64(z: np.ndarray) -> np.ndarray:
    # in place: every caller passes a temporary it owns
    z ^= z >> _U64(30)
    z *= _C1
    z ^= z >> _U64(27)
    z *= _C2
    z ^= z >> _U64(31)
    return z


def _mix64_int(z: int) -> int:
    # bit-identical to _mix64, on plain Python ints (faster for scalars)
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


_INIT_I = 0x5851F42D4C957F2D
_GAMMA_I = int(_GAMMA)


def fold(seed: int, *fields) -> int:
    """Fold ``seed`` and each integer field into a 64-bit hash."""
    h = _mix64_int((seed & _MASK) ^ _INIT_I)
    for f in fields:
        h = _mix64_int(((h + _GAMMA_I) & _MASK) ^ (int(f) & _MASK))
    return h


def _stream_prefixes(seed, replications, stream: int) -> np.ndarray:
    """``fold(s, r, stream)`` for every r of ``replications`` (an integer
    array or sequence) and the seed s of ``seed``, one for the whole array
    or one per replication, in one uint64 pass per field."""
    with np.errstate(over="ignore"):
        h = _mix64(np.asarray(seed, dtype=np.uint64) ^ _U64(_INIT_I)) + _GAMMA
        h = _mix64(h ^ np.asarray(replications, dtype=np.uint64))
        return _mix64((h + _GAMMA) ^ _U64(stream))


def pair_uniforms(seed, replication, i, j):
    """Uniform(0, 1) variates keyed by the sorted vertex pair ``{i, j}``.

    ``seed``, ``replication``, ``i`` and ``j`` may be scalars or
    broadcastable integer arrays; the result is symmetric in (i, j).  The
    (seed, replication, stream) prefix of the fold is computed once per run
    of equal consecutive (seed, replication), all runs in one array pass, so
    a batch of many replications, or of many grid points, each contiguous,
    costs little more than one replication of the same size.
    """
    ii = np.asarray(i, dtype=np.uint64)
    jj = np.asarray(j, dtype=np.uint64)
    lo = np.minimum(ii, jj)
    hi = np.maximum(ii, jj)
    if np.ndim(seed) == 0 and np.ndim(replication) == 0:
        h = _U64(fold(seed, replication, STREAM_EDGES))
    else:
        s, r, lo, hi = np.broadcast_arrays(
            np.asarray(seed, dtype=np.uint64), np.asarray(replication, dtype=np.uint64), lo, hi
        )
        if lo.size == 0:
            return np.empty(lo.shape)
        s, r = s.ravel(), r.ravel()
        starts = np.flatnonzero(np.concatenate(([True], (s[1:] != s[:-1]) | (r[1:] != r[:-1]))))
        runs = np.diff(np.append(starts, lo.size))
        h = np.repeat(_stream_prefixes(s[starts], r[starts], STREAM_EDGES), runs).reshape(lo.shape)
    with np.errstate(over="ignore"):
        h = _mix64((h + _GAMMA) ^ lo)
        h = _mix64((h + _GAMMA) ^ hi)
    return (h >> _U64(11)).astype(np.float64) * 2.0**-53


def points_keys(seed, replications) -> np.ndarray:
    """128-bit Philox keys for the point draws of a block of replications:
    row t holds the words ``fold(s, replications[t], STREAM_POINTS, w)`` for
    w = 0, 1, which share the fold of their prefix; s is ``seed``, or
    ``seed[t]`` when it is an array like ``replications``.  The whole block
    is folded in one uint64 pass per field."""
    with np.errstate(over="ignore"):
        h = _stream_prefixes(seed, replications, STREAM_POINTS) + _GAMMA
        return np.column_stack([_mix64(h.copy()), _mix64(h ^ _U64(1))])


def points_generator(seed: int, replication: int) -> np.random.Generator:
    """Philox generator for the point draws of one replication, keyed by
    ``fold(seed, replication, STREAM_POINTS, w)`` for w = 0, 1: the stream
    the samplers draw from, keyed here without :func:`points_keys`."""
    # keys above 2**63 must be passed as uint64, not Python ints (those would
    # round-trip through float64 and lose low bits)
    key = np.array([fold(seed, replication, STREAM_POINTS, w) for w in (0, 1)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def derive_subseed(seed: int, index: int) -> int:
    """Independent master seed for sweep grid point ``index``."""
    return fold(seed, index, STREAM_SUBSEED)
