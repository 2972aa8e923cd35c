"""Exception types shared across the package, and the integer and real
checks behind the ``ValidationError`` of counts, seeds, replication indices
and model parameters."""

import math
from numbers import Real

import numpy as np


class ValidationError(ValueError):
    """A parameter, table, or configuration value violates its contract."""


class UnsupportedClosedFormError(ValueError):
    """A closed-form routine was called outside the regime where it holds."""


class QuadratureConfigError(ValidationError):
    """A quadrature grid or radial rule is unusable (or too coarse while in strict mode)."""


class ReplicationError(RuntimeError):
    """Replications of a grid point could not be computed."""


def _int_problems(low: int, bits: int | None = None, **values) -> list[str]:
    """One problem line for each named value that is not an integer >= low
    or, when ``bits`` is given, not below 2**bits.  Seeds and replication
    indices are folded as 64-bit words, where a negative or larger value
    would alias another, so they take ``bits = 64``."""
    wanted = f">= {low}" if bits is None else f"in [{low}, 2**{bits})"
    return [
        f"{name}: must be an integer {wanted}, got {value!r}"
        for name, value in values.items()
        if not isinstance(value, (int, np.integer))
        or isinstance(value, bool)
        or value < low
        or (bits is not None and value >= 1 << bits)
    ]


def _real_problems(positive: bool = True, **values) -> list[str]:
    """One problem line for each named value that is not a finite real number
    > 0 or, unless ``positive``, >= 0.  A bool or a string is not a number
    here, though Python would compare or convert it."""
    wanted = "positive" if positive else "nonnegative"
    return [
        f"{name}: must be a {wanted} real, got {value!r}"
        for name, value in values.items()
        if isinstance(value, bool)
        or not isinstance(value, Real)
        or not 0 <= value < math.inf
        or (positive and value == 0)
    ]
