"""Conditioned Poisson sampling and graph realization.

The two anchors are always placed at (0, 0) and (anchor_distance, 0); the
model is isotropic, so fixing the axis loses no generality.  The sampling
rectangle is the anchors' bounding box expanded by the margin on every side.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _int_problems
from .model import ConnectionSpec, ModelParams, Point, Region
from .rng import pair_uniforms, points_key

_local = threading.local()
# the Philox counter and buffer of a fresh stream; the state setter copies them
_ZEROS = np.zeros(4, dtype=np.uint64)


def _fast_points_rng(seed: int, replication: int) -> np.random.Generator:
    """Same stream as :func:`rcmpaths.rng.points_generator`, but reusing one
    Philox instance and its generator per thread (construction dominates at
    high replication counts).  The generator is reset on the next call on the
    same thread, so it must be consumed before then; it never escapes
    :func:`sample_conditioned_ppp`.
    """
    rng = getattr(_local, "rng", None)
    if rng is None:
        rng = _local.rng = np.random.Generator(np.random.Philox(key=[0, 0]))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": np.array(points_key(seed, replication), dtype=np.uint64)},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


@dataclass(frozen=True, eq=False)
class GraphRealization:
    """One sampled graph with two distinguished anchors.

    ``points`` has shape (n, 2); rows 0 and 1 are the anchors.  ``adjacency``
    is a symmetric boolean matrix with a zero diagonal.
    """

    points: np.ndarray
    adjacency: np.ndarray
    seed: int
    replication: int

    def __post_init__(self) -> None:
        n = len(self.points)
        if n < 2:
            raise ValidationError("a realization needs at least the two anchors")
        if self.points.shape != (n, 2):
            raise ValidationError(f"points must have shape (n, 2), got {self.points.shape}")
        if self.adjacency.shape != (n, n) or self.adjacency.dtype != np.bool_:
            raise ValidationError("adjacency must be an (n, n) boolean matrix")
        if self.adjacency.diagonal().any():
            raise ValidationError("self-edges are forbidden")
        if not np.array_equal(self.adjacency, self.adjacency.T):
            raise ValidationError("adjacency must be symmetric")

    @property
    def n(self) -> int:
        return len(self.points)

    def edges(self) -> np.ndarray:
        """Edge list as an (m, 2) array of sorted index pairs."""
        iu, ju = np.triu_indices(self.n, k=1)
        keep = self.adjacency[iu, ju]
        return np.column_stack([iu[keep], ju[keep]])


def region_for(params: ModelParams) -> Region:
    """Sampling rectangle: anchor bounding box grown by the margin."""
    m = params.margin
    r = params.anchor_distance
    return Region(Point(-m, -m), Point(r + m, m))


def sample_conditioned_ppp(params: ModelParams, seed: int, replication: int) -> np.ndarray:
    """Sample the conditioned point set for one replication.

    Returns an (N + 2, 2) array: the anchors at (0, 0) and
    (anchor_distance, 0) followed by N ~ Poisson(rho * area) points placed
    uniformly in the sampling rectangle.  Pure function of
    (params, seed, replication).
    """
    region = region_for(params)
    rng = _fast_points_rng(seed, replication)
    n = int(rng.poisson(params.rho * region.area))
    u = rng.random((n, 2))
    pts = np.empty((n + 2, 2))
    pts[0] = (0.0, 0.0)
    pts[1] = (params.anchor_distance, 0.0)
    pts[2:, 0] = region.min_corner.x + u[:, 0] * region.width
    pts[2:, 1] = region.min_corner.y + u[:, 1] * region.height
    return pts


def connection_probabilities(spec: ConnectionSpec, sq_dists: np.ndarray) -> np.ndarray:
    """Link probabilities from squared distances."""
    return spec.evaluate(np.sqrt(sq_dists))


def draw_edges(spec: ConnectionSpec, seed: int, replication, i, j, sq_dists) -> np.ndarray:
    """Whether each vertex pair ``{i, j}`` of ``replication`` is an edge: its
    pair-keyed uniform lies below H at the pair's squared distance.

    Every edge, drawn lazily by the sweep counter or all at once by
    :func:`realize_graph`, is decided here, so both agree bit for bit.
    ``replication``, ``i``, ``j`` and ``sq_dists`` broadcast together.
    """
    return pair_uniforms(seed, replication, i, j) < connection_probabilities(spec, sq_dists)


def realize_graph(
    points: np.ndarray,
    spec: ConnectionSpec,
    seed: int,
    replication: int,
) -> GraphRealization:
    """Draw every pairwise edge of the realization with :func:`draw_edges`.
    Seeds and replication indices outside [0, 2**64) raise
    ``ValidationError``."""
    problems = _int_problems(0, 64, seed=seed, replication=replication)
    if problems:
        raise ValidationError("; ".join(problems))
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        raise ValidationError("need the two anchors at indices 0 and 1")
    n = len(points)
    iu, ju = np.triu_indices(n, k=1)
    dx = points[iu, 0] - points[ju, 0]
    dy = points[iu, 1] - points[ju, 1]
    hit = draw_edges(spec, seed, replication, iu, ju, dx * dx + dy * dy)
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[iu[hit], ju[hit]] = True
    adjacency |= adjacency.T
    return GraphRealization(points=points, adjacency=adjacency, seed=seed, replication=replication)


def sample_realization(params: ModelParams, seed: int, replication: int) -> GraphRealization:
    """Convenience: sample points and realize the graph in one call."""
    pts = sample_conditioned_ppp(params, seed, replication)
    return realize_graph(pts, params.connection, seed, replication)
