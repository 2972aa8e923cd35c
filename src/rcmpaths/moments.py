"""Factorial moments of path counts and existence-probability brackets.

The zero-count probability expands as an alternating series in the factorial
moments; truncating after an even-index term overestimates it and after an
odd-index term underestimates it, sample by sample.  All per-sample sums are
evaluated in exact integer arithmetic (the series is catastrophically
ill-conditioned in floating point at the orders used here, up to 80) and only
the final average is a float.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

UPPER_BOUND = "upper_bound"
LOWER_BOUND = "lower_bound"


@dataclass(frozen=True, eq=False)
class PathCountSamples:
    """Per-replication k-hop path counts for one parameter point."""

    k: int
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.ndim != 1 or len(counts) == 0:
            raise ValidationError("counts must be a nonempty 1-d integer array")
        if counts.min() < 0:
            raise ValidationError("counts must be nonnegative")

    def __len__(self) -> int:
        return len(self.counts)


@dataclass(frozen=True)
class ExistenceBracket:
    """A truncated estimate of P(count = 0) and the existence estimate 1 - it.

    ``side`` records which way the truncation bounds the zero probability:
    an even truncation order keeps a final positive term, so it is an upper
    bound; odd orders are lower bounds.
    """

    order: int
    partial_sum: float
    side: str
    existence_estimate: float


def falling_factorial(sigma: int, i: int) -> int:
    """Descending factorial sigma * (sigma-1) * ... * (sigma-i+1), exactly."""
    out = 1
    for j in range(i):
        out *= sigma - j
        if out == 0:
            return 0
    return out


def alternating_binomial_partial_sum(sigma: int, m: int) -> int:
    """Exact integer value of sum_{i=0}^{m} (-1)**i * C(sigma, i), which
    telescopes to (-1)**m * C(sigma - 1, m), and is 1 when sigma = 0."""
    if sigma == 0:
        return 1
    return (-1) ** m * math.comb(sigma - 1, m)


def empirical_factorial_moment(samples: PathCountSamples, i: int) -> float:
    """Sample mean of the i-th descending factorial of the counts."""
    if i < 0:
        raise ValidationError(f"moment order must be >= 0, got {i}")
    total = 0
    for sigma in samples.counts.tolist():
        total += falling_factorial(sigma, i)
    return total / len(samples)


def truncated_zero_probability(samples: PathCountSamples, m: int) -> ExistenceBracket:
    """Empirical truncation of the alternating series for P(count = 0).

    Averages sum_{i=0}^{m} (-1)**i * C(sigma, i) over the samples.  Once m
    reaches the largest observed count the estimate equals the exact
    empirical zero frequency.
    """
    return existence_brackets(samples, (m,))[0]


def existence_brackets(samples: PathCountSamples, orders) -> tuple[ExistenceBracket, ...]:
    """:func:`truncated_zero_probability` at every order of ``orders``: the
    one-row case of :func:`bracket_rows`."""
    return bracket_rows(samples.counts[None, :], orders)[0]


def bracket_rows(counts: np.ndarray, orders) -> list[tuple[ExistenceBracket, ...]]:
    """The brackets of every order of ``orders`` for each row of the (n, R)
    nonnegative integer ``counts``, from one histogram of the rows.  Each
    order's coefficients (-1)**m * C(sigma - 1, m), exact, grow with the
    count sigma: every row sums those under 2**53 / R in int64, then any
    larger ones in Python integers, and divides the exact sum by R."""
    if any(m < 0 for m in orders):
        raise ValidationError(f"truncation order must be >= 0, got {min(orders)}")
    n, r = counts.shape
    width = int(counts.max()) + 1
    hist = np.bincount((counts + width * np.arange(n)[:, None]).ravel(), minlength=n * width).reshape(n, width)
    values = np.flatnonzero(hist.any(axis=0))
    hist = hist[:, values]
    columns = []
    for m in orders:
        coefs = [alternating_binomial_partial_sum(sigma, m) for sigma in values.tolist()]
        small = sum(abs(c) * r < 1 << 53 for c in coefs)
        totals = (hist[:, :small] @ np.array(coefs[:small], dtype=np.int64)).tolist()
        for i in np.flatnonzero(hist[:, small:].any(axis=1)).tolist():
            totals[i] += sum(c * f for c, f in zip(coefs[small:], hist[i, small:].tolist()) if f)
        side = UPPER_BOUND if m % 2 == 0 else LOWER_BOUND
        columns.append([ExistenceBracket(m, t / r, side, 1.0 - t / r) for t in totals])
    return list(zip(*columns)) if columns else [()] * n


def quadratic_existence_bound(mean: float, variance: float) -> float:
    """Lower bound on the existence probability from the first two moments,
    in the grouping 1 - [2*mean - mean**2 - variance].

    Evaluates to (1 - mean)**2 + variance, reported raw: no clamping to
    [0, 1], the caller decides how to present out-of-range values.  Note it
    is vacuous at mean = variance = 0 (returns 1), unlike the order-2
    truncation bound below; both are reported side by side for transparency.
    """
    return 1.0 - 2.0 * mean + mean * mean + variance


def bonferroni_bound_order2(mean: float, variance: float) -> float:
    """Order-2 alternating-series lower bound on the existence probability.

    Truncating the zero-probability series at i = 2 and using
    E[count*(count-1)] = variance + mean**2 - mean gives
    (3/2)*mean - variance/2 - mean**2/2.  Reported raw, no clamping.
    """
    return 1.5 * mean - 0.5 * variance - 0.5 * mean * mean
