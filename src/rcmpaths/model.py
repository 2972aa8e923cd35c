"""Core domain types: planar geometry, connection functions, model parameters.

A random connection model is parameterized by a point-process intensity, a
connection function mapping inter-node distance to link probability, the
separation of the two anchor nodes, and the hop count of interest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _int_problems, _real_problems
from .rng import POISSON_MAX

RAYLEIGH = "rayleigh"
HARD_DISK = "hard_disk"
TABULATED = "tabulated"
_KINDS = (RAYLEIGH, HARD_DISK, TABULATED)

# Tail threshold used for reach / margin defaults: exp(-25) ~ 1.4e-11 per hop.
_TAIL_LOG = 25.0


@dataclass(frozen=True)
class Point:
    """A position in the plane."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValidationError(f"point coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class Region:
    """An axis-aligned rectangle with positive area."""

    min_corner: Point
    max_corner: Point

    def __post_init__(self) -> None:
        if not (self.max_corner.x > self.min_corner.x and self.max_corner.y > self.min_corner.y):
            raise ValidationError("max_corner must strictly dominate min_corner in both coordinates")

    @property
    def width(self) -> float:
        return self.max_corner.x - self.min_corner.x

    @property
    def height(self) -> float:
        return self.max_corner.y - self.min_corner.y

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains(self, x, y):
        """Vectorized membership test (closed rectangle)."""
        return (
            (x >= self.min_corner.x)
            & (x <= self.max_corner.x)
            & (y >= self.min_corner.y)
            & (y <= self.max_corner.y)
        )


@dataclass(frozen=True)
class ConnectionSpec:
    """A radial connection function H(r) -> [0, 1].

    Kinds:
      - ``rayleigh``: H(r) = exp(-beta * r**eta) for r > 0.
      - ``hard_disk``: H(r) = 1 for 0 < r <= r0, else 0.
      - ``tabulated``: linear interpolation through (distance, probability)
        knots, constant below the first knot, 0 beyond the last knot.

    All kinds return exactly 0 at r = 0: vertices never connect to themselves,
    so a zero-distance pair (two distinct vertices at one location) never gets
    an edge. ``kernel`` is the continuous extension used by quadrature.
    """

    kind: str
    beta: float = 1.0
    eta: float = 2.0
    r0: float = 1.0
    table: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown connection kind {self.kind!r}; expected one of {_KINDS}")
        if self.kind == RAYLEIGH:
            problems = _real_problems(beta=self.beta, eta=self.eta)
            if not problems and not math.isfinite(self._rayleigh_reach()):
                problems.append(
                    f"beta, eta: the reach (25/beta)**(1/eta) overflows a float, got beta={self.beta!r}, "
                    f"eta={self.eta!r}"
                )
        elif self.kind == HARD_DISK:
            problems = _real_problems(r0=self.r0)
        else:
            knots = self.table if isinstance(self.table, (tuple, list)) else ()
            if not knots or any(not isinstance(knot, (tuple, list)) or len(knot) != 2 for knot in knots):
                raise ValidationError("tabulated connection requires a list of (distance, probability) knots")
            cells = {f"table[{i}][{j}]": v for i, knot in enumerate(knots) for j, v in enumerate(knot)}
            problems = _real_problems(False, **cells)
        if problems:
            raise ValidationError("; ".join(problems))
        if self.kind == TABULATED:
            table = tuple((float(d), float(p)) for d, p in self.table)
            object.__setattr__(self, "table", table)
            dists = [d for d, _ in table]
            if any(b <= a for a, b in zip(dists, dists[1:])):
                raise ValidationError("table distances must be strictly increasing")
            if any(not (0.0 <= p <= 1.0) for _, p in table):
                raise ValidationError("table probabilities must lie in [0, 1]")
            if dists[-1] == 0.0:
                raise ValidationError(f"table: the last knot's distance (the reach) must be positive, got {table!r}")

    @classmethod
    def rayleigh(cls, beta: float = 1.0, eta: float = 2.0) -> "ConnectionSpec":
        return cls(kind=RAYLEIGH, beta=beta, eta=eta)

    @classmethod
    def hard_disk(cls, r0: float) -> "ConnectionSpec":
        return cls(kind=HARD_DISK, r0=r0)

    @classmethod
    def tabulated(cls, knots) -> "ConnectionSpec":
        return cls(kind=TABULATED, table=tuple(tuple(knot) for knot in knots))

    def _raw(self, r: np.ndarray) -> np.ndarray:
        """Connection probability ignoring the r = 0 rule."""
        if self.kind == RAYLEIGH:
            return np.exp(-self.beta * np.power(r, self.eta))
        if self.kind == HARD_DISK:
            return np.where(r <= self.r0, 1.0, 0.0)
        d = np.array([k[0] for k in self.table])
        p = np.array([k[1] for k in self.table])
        out = np.interp(r, d, p, left=p[0], right=0.0)
        out = np.where(r > d[-1], 0.0, out)
        return np.clip(out, 0.0, 1.0)

    def evaluate(self, r):
        """Link probability at distance ``r`` (graph semantics: 0 at r = 0):
        :meth:`kernel` with the r = 0 rule."""
        arr = np.asarray(r, dtype=float)
        out = np.where(arr > 0.0, self.kernel(arr), 0.0)
        return float(out) if arr.ndim == 0 else out

    def kernel(self, r):
        """Continuous extension of the connection function, for integration.

        Identical to ``evaluate`` except at r = 0, where the limit from above
        is used; the single zero-distance point has measure zero in every
        integral this package evaluates.
        """
        arr = np.asarray(r, dtype=float)
        if np.any(arr < 0):
            raise ValidationError("distances must be nonnegative")
        out = self._raw(arr)
        return float(out) if arr.ndim == 0 else out

    def _rayleigh_reach(self) -> float:
        try:
            return (_TAIL_LOG / float(self.beta)) ** (1.0 / float(self.eta))
        except OverflowError:
            return math.inf

    @property
    def reach(self) -> float:
        """Distance beyond which the connection probability is negligible.

        Rayleigh: solves exp(-beta * r**eta) = exp(-25); a (beta, eta) whose
        reach overflows a float is refused when the spec is built.  Hard
        disk and tabulated kinds have compact support and return it exactly.
        """
        if self.kind == RAYLEIGH:
            return self._rayleigh_reach()
        if self.kind == HARD_DISK:
            return self.r0
        return self.table[-1][0]


def default_margin(connection: ConnectionSpec, k: int) -> float:
    """Default box margin so truncating the plane to a rectangle is harmless.

    Rayleigh: reach * sqrt(k), i.e. 5/sqrt(beta) * sqrt(k) when eta = 2
    (per-hop tail exp(-25)). Compact-support kinds: support radius * k, which
    no k-hop path can outrun.
    """
    if connection.kind == RAYLEIGH:
        return connection.reach * math.sqrt(k)
    return connection.reach * k


def cloud_mass(params: ModelParams) -> float:
    """Mean number of proposals of one anchor's cloud.

    Rayleigh: rho times the integral of H over the plane,
    2 pi rho Gamma(2/eta) / (eta beta**(2/eta)); every proposal is a point.
    Hard disk and tabulated: rho pi reach**2, the mean number of points in
    the support disk, before they are thinned by H.  May raise
    ``OverflowError`` or ``ZeroDivisionError`` for parameters that
    :class:`ModelParams` refuses.
    """
    spec = params.connection
    if spec.kind == RAYLEIGH:
        shape = 2.0 / spec.eta
        return 2.0 * math.pi * params.rho * math.gamma(shape) / (spec.eta * spec.beta**shape)
    return math.pi * params.rho * spec.reach**2


def region_for(params: ModelParams) -> Region:
    """Sampling rectangle of k >= 4: anchor bounding box grown by the margin."""
    m = params.margin
    r = params.anchor_distance
    return Region(Point(-m, -m), Point(r + m, m))


@dataclass(frozen=True)
class ModelParams:
    """Parameters of one simulated scenario.

    ``margin`` may be left as None to use :func:`default_margin`; only
    k >= 4 draws a box, so k <= 3 records the margin but never uses it.
    Parameters are refused when the mean number of points one replication
    draws, :func:`cloud_mass` per anchor for k <= 3 and rho times the area
    of :func:`region_for` for k >= 4, overflows or is above
    :data:`rcmpaths.rng.POISSON_MAX`, the largest Poisson mean the keyed
    sampler draws.
    """

    rho: float
    connection: ConnectionSpec
    anchor_distance: float
    k: int
    margin: float | None = None

    def __post_init__(self) -> None:
        problems = _real_problems(rho=self.rho) + _int_problems(1, k=self.k)
        problems += _real_problems(False, anchor_distance=self.anchor_distance)
        if self.margin is None and not problems:
            object.__setattr__(self, "margin", default_margin(self.connection, int(self.k)))
        if self.margin is not None:
            problems += _real_problems(margin=self.margin)
        if problems:
            raise ValidationError("; ".join(problems))
        if self.k <= 3:
            names, what = "rho, connection", "of each anchor's cloud"
            try:
                mean = cloud_mass(self)
            except (OverflowError, ZeroDivisionError):
                mean = math.inf
        else:
            names, what = "rho, anchor_distance, margin", "of the box"
            mean = self.rho * region_for(self).area
        if not mean <= POISSON_MAX:
            raise ValidationError(
                f"{names}: the mean number of points {what} must be at most {POISSON_MAX:.4g} "
                f"to be drawn, got {mean!r}"
            )
