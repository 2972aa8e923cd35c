"""Poisson sampling and graph realization.

The two anchors are always placed at (0, 0) and (anchor_distance, 0); the
model is isotropic, so fixing the axis loses no generality.

This module alone decides what a replication of a given k draws.  One call,
:func:`block_points`, draws a block of replications for every k >= 2.  A
block lists slices, runs of replications of one grid point each, and its
grid points share one connection function and one k but may differ in
density, separation, box and seed.  Every variate is a keyed uniform of the
point stream (:func:`rcmpaths.rng.keyed_uniforms`), keyed by the grid seed,
the replication, the draw (one of the ``_COUNT`` .. ``_BOX_Y`` fields) and
the variate's number within its replication, so the whole block is drawn in
one vectorised pass and any cut of it into blocks gives the same bits.  It
returns the block's non-anchor points with their edges to the two anchors,
and a callback that draws their edges to each other.

* k <= 3 draws only the anchors' neighbours, in the whole plane, with no
  box.  A path of at most three hops passes only through points adjacent to
  an anchor.  Cloud 0 is a Poisson process of intensity rho * H(|z - x|),
  the points adjacent to anchor x, each marked with its edge to anchor y.
  Cloud 1 is a Poisson process of intensity rho * H(|z - y|), kept where its
  mark says the point is *not* adjacent to x.  Together they have the exact
  law of the points adjacent to {x, y}, with their anchor edges (see
  :func:`anchor_neighbours`).
* k >= 4 draws a Poisson process on the anchors' bounding box grown by the
  margin on every side (:func:`box_points`); the edges to the anchors are
  drawn by :func:`draw_edges`.

Every other edge is decided by :func:`draw_edges`, which nothing outside
this module calls, from the lower vertex's edge key (folded once per
vertex) and the upper vertex's index: :func:`block_points`,
:func:`anchor_edges` (k = 1) and :func:`realize_graph` all draw the
:func:`rcmpaths.rng.pair_uniforms` of the grid seed, replication and pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _int_problems
from .model import RAYLEIGH, ConnectionSpec, ModelParams, cloud_mass, region_for
from .rng import (
    STREAM_EDGES,
    STREAM_POINTS,
    fold_keys,
    keyed_gamma,
    keyed_uniforms,
    poisson_counts,
    stream_keys,
)

# The draws of the point stream: variate i of draw f of a replication is
# keyed_uniforms(fold_keys(key, f), i), key being the replication's stream
# key.
_COUNT, _RADIUS, _ANGLE, _MARK, _ACCEPT, _BOX_X, _BOX_Y = range(7)


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


def mean_draws(params: ModelParams) -> float:
    """Mean number of points (k >= 4) or neighbour proposals (k = 2, 3) one
    replication draws, the anchors not counted; k = 1 draws none."""
    if int(params.k) <= 3:
        return 2.0 * cloud_mass(params) if int(params.k) > 1 else 0.0
    return params.rho * region_for(params).area


def slice_replications(slices):
    """The layout of the replications of ``slices``, a list of ``(params,
    seed, first, last)``: replications ``first`` .. ``last - 1`` of each
    slice in order, slice by slice.

    Returns ``(seeds, replications, distances, ends)``: the grid seed, the
    index and the anchor distance of every replication (two uint64 arrays
    and a float array), and where each slice's replications end.
    """
    lengths = [last - first for _, _, first, last in slices]
    ends = np.cumsum(lengths)
    seeds = np.repeat(np.array([seed for _, seed, _, _ in slices], dtype=np.uint64), lengths)
    offsets = np.repeat(np.array([first for _, _, first, _ in slices], dtype=np.uint64), lengths)
    within = np.arange(len(seeds)) - np.repeat(ends - lengths, lengths)
    distances = np.repeat([p.anchor_distance for p, _, _, _ in slices], lengths)
    return seeds, offsets + within.astype(np.uint64), distances, ends


def _variates(sizes):
    """``(owner, number)`` of every variate of a draw in which replication b
    draws ``sizes[b]``: the replication it belongs to, and its number
    there."""
    owner = np.repeat(np.arange(len(sizes)), sizes)
    return owner, np.arange(len(owner)) - (np.cumsum(sizes) - sizes)[owner]


def _uniforms(keys, fields, owner, number):
    """The point-stream uniforms of the draws ``fields`` of the variates
    ``(owner, number)``, for the replications' stream keys ``keys``: one row
    per variate, one column per field.  Each field is folded once per
    replication."""
    return keyed_uniforms(fold_keys(keys[:, None], fields)[owner], number[:, None])


def box_points(slices, layout):
    """The box points of the replications of ``slices`` (the k >= 4 draw),
    whose :func:`slice_replications` are ``layout``.

    Returns ``(xy, sizes)``: the points of every replication in turn,
    ``sizes[b]`` of them for replication b.  Each replication draws its
    count N ~ Poisson(rho * area) from its ``_COUNT`` uniform, and point i
    from its ``_BOX_X`` and ``_BOX_Y`` uniforms i, in the rectangle of
    :func:`rcmpaths.model.region_for`.
    """
    seeds, replications, _, ends = layout
    boxes = [(p.rho, region_for(p)) for p, _, _, _ in slices]
    keys = stream_keys(seeds, replications, STREAM_POINTS)
    means = np.repeat([rho * b.area for rho, b in boxes], np.diff(ends, prepend=0))
    sizes = poisson_counts(means, keyed_uniforms(fold_keys(keys, _COUNT), 0))
    xy = _uniforms(keys, [_BOX_X, _BOX_Y], *_variates(sizes))
    # each slice's points are a run of rows
    bounds = np.cumsum(sizes)[ends - 1].tolist()
    for (_, b), lo, hi in zip(boxes, [0, *bounds], bounds):
        xy[lo:hi] *= (b.width, b.height)
        xy[lo:hi] += (b.min_corner.x, b.min_corner.y)
    return xy, sizes


def sample_conditioned_ppp(params: ModelParams, seed: int, replication: int) -> np.ndarray:
    """The anchors at (0, 0) and (anchor_distance, 0), then the
    :func:`box_points` of one replication: an (N + 2, 2) array."""
    slices = [(params, seed, replication, replication + 1)]
    xy, _ = box_points(slices, slice_replications(slices))
    return np.vstack([[[0.0, 0.0], [params.anchor_distance, 0.0]], xy])


def anchor_neighbours(slices, layout):
    """The anchors' neighbours (the k <= 3 draw) of the replications of
    ``slices``, whose grid points share one connection function and whose
    :func:`slice_replications` are ``layout``.

    Each replication draws the proposal counts n0 and n1 of clouds 0 and 1,
    Poisson with mean :func:`cloud_mass`, from its ``_COUNT`` uniforms 0
    and 1; proposals 0 .. n0 - 1 are cloud 0's.  Proposal i lies at a
    distance from its anchor drawn from ``_RADIUS`` variate i: a Gamma(2/eta)
    variate G for Rayleigh (the distance is (G/beta)**(1/eta); -log1p(-U) at
    eta = 2, else :func:`rcmpaths.rng.keyed_gamma`), reach * sqrt(U) for the
    other kinds, which then accept it when its ``_ACCEPT`` uniform lies
    below H of the distance.  Its angle is 2 pi times its ``_ANGLE``
    uniform, and its ``_MARK`` uniform decides its edge to the other anchor.

    Returns ``(xy, sizes, near)``: the kept points of every replication in
    turn, ``sizes[b]`` of them for replication b, in proposal order (so they
    are numbered 2, 3, ... within their replication), and two boolean arrays
    over the points, their edges to anchor 0 and to anchor 1.  A cloud-0
    point is adjacent to anchor 0 and its mark, a uniform below H of its
    distance to anchor 1, makes the edge to anchor 1.  A cloud-1 point is
    adjacent to anchor 1 and is kept when its mark, against H of its
    distance to anchor 0, says it is not adjacent to anchor 0.
    """
    spec = slices[0][0].connection
    seeds, replications, distances, ends = layout
    keys = stream_keys(seeds, replications, STREAM_POINTS)
    mass = np.repeat([cloud_mass(p) for p, _, _, _ in slices], np.diff(ends, prepend=0))
    clouds = poisson_counts(mass[:, None], keyed_uniforms(fold_keys(keys, _COUNT)[:, None], np.arange(2)))
    owner, number = _variates(clouds.sum(axis=1))
    rayleigh = spec.kind == RAYLEIGH
    fields = [_RADIUS, _ANGLE, _MARK] if rayleigh else [_RADIUS, _ANGLE, _MARK, _ACCEPT]
    u = _uniforms(keys, fields, owner, number)
    if rayleigh:
        shape = 2.0 / spec.eta
        if shape == 1.0:
            radial = -np.log1p(-u[:, 0])
        else:
            radial = keyed_gamma(keys[owner], number, shape, _RADIUS, u[:, 0])
        dist = (radial / spec.beta) ** (1.0 / spec.eta)
        keep = np.ones(len(u), dtype=bool)
    else:
        dist = spec.reach * np.sqrt(u[:, 0])
        keep = u[:, 3] < spec.evaluate(dist)
    cloud1 = number >= clouds[owner, 0]
    angle = 2.0 * math.pi * u[:, 1]
    r = distances[owner]
    x = np.where(cloud1, r, 0.0) + dist * np.cos(angle)
    y = dist * np.sin(angle)
    dx = x - np.where(cloud1, 0.0, r)
    marked = u[:, 2] < connection_probabilities(spec, dx * dx + y * y)
    keep &= ~(cloud1 & marked)
    sizes = np.bincount(owner[keep], minlength=len(clouds))
    near = (~cloud1[keep], (cloud1 | marked)[keep])
    return np.column_stack([x[keep], y[keep]]), sizes, near


def connection_probabilities(spec: ConnectionSpec, sq_dists: np.ndarray) -> np.ndarray:
    """Link probabilities from squared distances."""
    return spec.evaluate(np.sqrt(sq_dists))


def draw_edges(spec: ConnectionSpec, keys, j, sq_dists) -> np.ndarray:
    """Whether each vertex pair ``{i, j}``, i < j, is an edge: its
    ``pair_uniforms(seed, replication, i, j)`` lies below H at its squared
    distance.  ``keys`` are the lower vertices' edge keys, ``fold(seed,
    replication, STREAM_EDGES, i)``, folded once per vertex by the callers,
    and ``j`` the upper vertices' indices; all three broadcast together.
    Only the anchor edges of a k <= 3 replication are marks of
    :func:`anchor_neighbours` instead.
    """
    return keyed_uniforms(keys, j) < connection_probabilities(spec, sq_dists)


def anchor_edges(slices, layout) -> np.ndarray:
    """The anchors' own edge (the k = 1 draw) in each replication of
    ``slices``, whose :func:`slice_replications` are ``layout``: the pair
    {0, 1} at the replication's anchor distance."""
    seeds, replications, distances, _ = layout
    keys = fold_keys(stream_keys(seeds, replications, STREAM_EDGES), 0)
    return draw_edges(slices[0][0].connection, keys, 1, distances * distances)


def _refuse_bad_keys(seed: int, replication: int) -> None:
    problems = _int_problems(0, 64, seed=seed, replication=replication)
    if problems:
        raise ValidationError("; ".join(problems))


def _adjacency(points: np.ndarray, spec: ConnectionSpec, seed: int, replication: int, near=None):
    """The symmetric adjacency of ``points`` with every pair's edge drawn by
    :func:`draw_edges`, except, when ``near`` is given, the edges between an
    anchor and a non-anchor point: those are the rows ``near``."""
    n = len(points)
    iu, ju = np.triu_indices(n, k=1)
    dx = points[iu, 0] - points[ju, 0]
    dy = points[iu, 1] - points[ju, 1]
    keys = fold_keys(stream_keys(seed, replication, STREAM_EDGES), np.arange(n, dtype=np.uint64))
    hit = draw_edges(spec, keys[iu], ju, dx * dx + dy * dy)
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[iu[hit], ju[hit]] = True
    if near is not None:
        adjacency[0, 2:], adjacency[1, 2:] = near
    adjacency |= adjacency.T
    return adjacency


def realize_graph(
    points: np.ndarray,
    spec: ConnectionSpec,
    seed: int,
    replication: int,
) -> GraphRealization:
    """Draw every pairwise edge of the realization with :func:`draw_edges`.
    Seeds and replication indices outside [0, 2**64) raise
    ``ValidationError``."""
    _refuse_bad_keys(seed, replication)
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        raise ValidationError("need the two anchors at indices 0 and 1")
    adjacency = _adjacency(points, spec, seed, replication)
    return GraphRealization(points=points, adjacency=adjacency, seed=seed, replication=replication)


def block_points(slices, layout):
    """What a block of replications draws: the non-anchor points and their
    edges.

    ``slices`` lists ``(params, seed, first, last)``: replications ``first``
    .. ``last - 1`` of the grid point ``params`` whose grid seed is
    ``seed``, and ``layout`` is their :func:`slice_replications`.  The grid
    points share one connection function and one k >= 2.  Returns ``(xy,
    owner, near, linked)``: the points of every replication in turn, in
    draw order (numbered 2, 3, ... within their replication), the block
    position of each one's replication, their edges to anchor 0 and to
    anchor 1, and ``linked(u, v)``, the edges of the point pairs ``(u[i],
    v[i])``, each of one replication (None at k = 2, which folds no edge
    key).  k <= 3 draws the :func:`anchor_neighbours`, whose anchor edges
    are marks, k >= 4 the :func:`box_points`, whose anchor edges, like every
    pair's, are drawn by :func:`draw_edges` from the edge keys, folded once
    per block, anchor and point.
    """
    params = slices[0][0]
    spec, k = params.connection, int(params.k)
    seeds, replications, distances, _ = layout
    if k <= 3:
        xy, sizes, near = anchor_neighbours(slices, layout)
    else:
        xy, sizes = box_points(slices, layout)
    owner, number = _variates(sizes)
    if k == 2:
        return xy, owner, near, None
    # vertex index within its replication, below which lie the anchors, 0 and
    # 1; of two points of one replication the lower row is the lower vertex
    local = number + 2
    edge_keys = stream_keys(seeds, replications, STREAM_EDGES)
    x, y = xy[:, 0], xy[:, 1]
    if k >= 4:
        anchor_keys = fold_keys(edge_keys[:, None], np.arange(2, dtype=np.uint64))
        # the anchors sit at (0, 0) and (r, 0)
        yy = y**2
        near = tuple(
            draw_edges(spec, anchor_keys[owner, a], local, (x - ax) * (x - ax) + yy)
            for a, ax in ((0, 0.0), (1, distances[owner]))
        )
    keys = fold_keys(edge_keys[owner], local)

    def linked(u, v):
        dx, dy = x[u] - x[v], y[u] - y[v]
        return draw_edges(spec, keys[np.minimum(u, v)], local[np.maximum(u, v)], dx * dx + dy * dy)

    return xy, owner, near, linked


def sample_realization(params: ModelParams, seed: int, replication: int) -> GraphRealization:
    """Sample one replication's points and realize its graph, with the draws
    the sweep counter makes for it, so both find the same paths.

    The points are the anchors and the :func:`block_points` of the
    replication; their edges to the anchors are its ``near`` rows, and every
    other edge, the anchors' own included, is drawn by :func:`draw_edges`
    as in :func:`realize_graph`.  At k >= 4 the anchor rows are drawn by
    :func:`draw_edges` either way, so they are the full draw's.  Seeds and
    replication indices outside [0, 2**64) raise ``ValidationError``.
    """
    _refuse_bad_keys(seed, replication)
    slices = [(params, seed, replication, replication + 1)]
    xy, _, near, _ = block_points(slices, slice_replications(slices))
    points = np.vstack([[[0.0, 0.0], [params.anchor_distance, 0.0]], xy])
    adjacency = _adjacency(points, params.connection, seed, replication, near)
    return GraphRealization(points=points, adjacency=adjacency, seed=seed, replication=replication)
