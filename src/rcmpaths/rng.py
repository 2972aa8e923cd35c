"""Deterministic, replication-indexed randomness.

Every random quantity in a simulation is a pure function of
``(master seed, replication index)`` plus a draw-specific key, so results do
not depend on iteration order, evaluation laziness, or parallel schedule.

Scheme
------
A 64-bit state, ``fold(seed, *fields)`` below, is folded through the
splitmix64 finalizer once per field::

    h = mix64(seed ^ INIT)
    for field in fields:
        h = mix64((h + GAMMA) ^ field)

and every uniform is the top 53 bits of the fold of ``(seed, replication,
stream, a, b)``, drawn by :func:`keyed_uniforms` from :func:`stream_keys`
and :func:`fold_keys` in numpy uint64, whose arithmetic wraps modulo 2**64,
so one variate or a million give the same bits.

Streams (so point draws and edge draws never collide):

* point stream: variate ``index`` of a replication's draw ``field`` (a
  count, a radius, an angle, ...) is keyed by ``(STREAM_POINTS, field,
  index)``, so no state passes from one variate to the next; Poisson counts
  invert a CDF table (:func:`poisson_counts`) and Gamma variates come from
  a keyed rejection (:func:`keyed_gamma`).
* edge stream: the uniform deciding the edge of vertex pair ``{i, j}`` is
  keyed by ``(STREAM_EDGES, min(i, j), max(i, j))``.  Any subset of pairs can
  therefore be evaluated lazily, in any order, and agrees bit-for-bit with a
  full-matrix realization.  :mod:`rcmpaths.sampler` draws every edge, from
  each lower vertex's key folded once.
* subseed stream: derives independent master seeds for sweep grid points.
"""
from __future__ import annotations

import math

import numpy as np

# 0-d uint64 arrays, not numpy scalars: numpy arithmetic on them is faster
# and never warns of the wraparound the hash relies on
_GAMMA, _C1, _C2, _INIT, _S11, _S27, _S30, _S31 = (
    np.array(c, dtype=np.uint64)
    for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 0x5851F42D4C957F2D, 11, 27, 30, 31)
)

STREAM_POINTS = 1
STREAM_EDGES = 2
STREAM_SUBSEED = 3

# The largest Poisson mean poisson_counts draws.  A mean's CDF table spans
# about 20 sqrt(mean) + 60 counts: at this mean 232000 float64, 1.8 MiB.
POISSON_MAX = float(1 << 27)

# Attempt t of a keyed_gamma draw at field f reads its three uniforms at the
# fields f + (3t + 1, 3t + 2, 3t + 3) * _ATTEMPT, so field values below
# _ATTEMPT never collide with an attempt's.
_ATTEMPT = 1 << 32


def _mix64(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> _S30)
    z = z * _C1
    z = z ^ (z >> _S27)
    z = z * _C2
    return z ^ (z >> _S31)


def stream_keys(seed, replication, stream: int) -> np.ndarray:
    """``fold(s, r, stream)`` for every (s, r) of the broadcast integer
    arrays (or scalars) ``seed`` and ``replication``, in [0, 2**64), as a
    uint64 array of their broadcast shape, in one uint64 pass per field."""
    h = _mix64(np.asarray(seed, dtype=np.uint64) ^ _INIT) + _GAMMA
    h = _mix64(h ^ np.asarray(replication, dtype=np.uint64)) + _GAMMA
    return _mix64(h ^ np.asarray(stream, dtype=np.uint64))


def fold_keys(keys, field) -> np.ndarray:
    """Fold the integer ``field`` (in [0, 2**64)) into the fold states
    ``keys``, broadcast together: ``fold(s, r, stream, a)`` from the
    :func:`stream_keys` ``fold(s, r, stream)`` and ``a``."""
    return _mix64((np.asarray(keys, dtype=np.uint64) + _GAMMA) ^ np.asarray(field, dtype=np.uint64))


def keyed_uniforms(keys, index) -> np.ndarray:
    """Uniform [0, 1) variates ``(fold(s, r, stream, a, b) >> 11) * 2**-53``
    for the keys ``fold_keys(stream_keys(s, r, stream), a)`` and index ``b``."""
    return (fold_keys(keys, index) >> _S11).astype(np.float64) * 2.0**-53


def _poisson_cdf(mean: float):
    """``(lo, cdf)``: the Poisson(mean) CDF at lo, lo + 1, ..., but for its
    last entry (which is 1), over the 10 sqrt(mean) + 30 counts on each side
    of the mean, beyond which each tail holds less than e**-45 of the mass.
    The pmf is summed in log space, so a large mean does not underflow."""
    spread = 10.0 * math.sqrt(mean) + 30.0
    lo = max(0, math.floor(mean - spread))
    with np.errstate(divide="ignore", invalid="ignore"):
        # log p(n) - log p(n - 1), summed from p(lo)
        logp = np.log(mean / np.arange(lo, math.ceil(mean + spread) + 1, dtype=np.float64))
    logp[0] = 0.0
    np.cumsum(logp, out=logp)
    logp -= logp.max()
    cdf = np.cumsum(np.exp(logp, out=logp), out=logp)
    cdf /= cdf[-1]
    return lo, cdf[:-1]


def poisson_counts(mean, u) -> np.ndarray:
    """Poisson counts by inversion: the least n whose CDF exceeds each
    uniform of ``u``, for the mean of ``mean`` (one per uniform, or one for
    all; at most ``POISSON_MAX``).  Each run of equal consecutive means, in
    C order, is looked up in that mean's CDF table."""
    mean, u = np.broadcast_arrays(np.asarray(mean, dtype=np.float64), np.asarray(u, dtype=np.float64))
    shape = u.shape
    mean, u = mean.ravel(), u.ravel()
    out = np.empty(len(u), dtype=np.int64)
    starts = np.flatnonzero(np.diff(mean, prepend=np.nan) != 0).tolist()
    for a, b in zip(starts, [*starts[1:], len(u)]):
        lo, cdf = _poisson_cdf(float(mean[a]))
        out[a:b] = np.searchsorted(cdf, u[a:b], side="right")
        out[a:b] += lo
    return out.reshape(shape)


def keyed_gamma(keys, index, shape: float, field: int, boost) -> np.ndarray:
    """Gamma(shape) variates, one per entry of the :func:`stream_keys`
    ``keys`` and variate numbers ``index``, by Marsaglia-Tsang rejection.

    Each attempt draws a Box-Muller normal and an acceptance uniform from
    keys of its own (see ``_ATTEMPT``), so a variate does not depend on the
    others drawn with it; the rejected ones retry together, round by round.
    A shape below 1 draws Gamma(shape + 1) times U**(1/shape), U the
    uniform of ``boost`` (one per variate, the caller's draw at ``field``
    itself).
    """
    a = shape + 1.0 if shape < 1.0 else shape
    d = a - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(len(index))
    todo = np.arange(len(index))
    attempt = 0
    while todo.size:
        fields = field + (3 * attempt + np.arange(1, 4)) * _ATTEMPT
        u = keyed_uniforms(fold_keys(keys[todo, None], fields), index[todo, None])
        x = np.sqrt(-2.0 * np.log1p(-u[:, 0])) * np.cos(2.0 * math.pi * u[:, 1])
        v = 1.0 + c * x
        v *= v * v
        with np.errstate(divide="ignore", invalid="ignore"):
            accept = (v > 0.0) & (np.log(u[:, 2]) < 0.5 * x * x + d - d * v + d * np.log(v))
        out[todo[accept]] = d * v[accept]
        todo = todo[~accept]
        attempt += 1
    if shape < 1.0:
        out *= boost ** (1.0 / shape)
    return out


def derive_subseed(seed: int, index: int) -> int:
    """Independent master seed for sweep grid point ``index``: the fold of
    ``(seed, index, STREAM_SUBSEED)``, as :func:`stream_keys` gives it."""
    return int(stream_keys(seed, index, STREAM_SUBSEED))
