"""Poisson sampling and graph realization.

The two anchors are always placed at (0, 0) and (anchor_distance, 0); the
model is isotropic, so fixing the axis loses no generality.

This module alone decides what a replication of a given k draws.  One call,
:func:`block_points`, draws a block of replications for every k, each from
the replication's own Philox stream.  A block lists slices, runs of
replications of one grid point each, and its grid points share one
connection function and one k but may differ in density, separation, box
and seed.  The stream keys are folded in one pass
(:func:`rcmpaths.rng.points_keys`), for the whole block at k <= 3 and for
each grid point at k >= 4, and only the draws themselves run once per
replication.  It returns the block's non-anchor points with their edges to
the two anchors.

* k <= 3 draws only the anchors' neighbours, in the whole plane, with no
  box.  A path of at most three hops passes only through points adjacent to
  an anchor.  Cloud 0 is a Poisson process of intensity rho * H(|z - x|),
  the points adjacent to anchor x, each marked with its edge to anchor y.
  Cloud 1 is a Poisson process of intensity rho * H(|z - y|), kept where its
  mark says the point is *not* adjacent to x.  Together they have the exact
  law of the points adjacent to {x, y}, with their anchor edges (see
  :func:`neighbour_draws` and :func:`anchor_neighbours`).
* k >= 4 draws a Poisson process on the anchors' bounding box grown by the
  margin on every side (:func:`box_points`); the edges to the anchors are
  drawn by :func:`draw_edges`.

Every other edge, between two non-anchor points or between the anchors, is
decided by :func:`draw_edges` from a uniform keyed by the grid seed, the
replication and the vertex pair.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import ValidationError, _int_problems
from .model import RAYLEIGH, ConnectionSpec, ModelParams, cloud_mass, region_for
from .rng import pair_uniforms, points_keys

_local = threading.local()
# the Philox counter and buffer of a fresh stream; the state setter copies them
_ZEROS = np.zeros(4, dtype=np.uint64)


def _points_streams(keys):
    """Yield the point stream of each Philox key of ``keys`` in turn: the
    stream of :func:`rcmpaths.rng.points_generator`, but reusing one Philox
    instance and its generator per thread (construction dominates at high
    replication counts).  Each stream must be consumed before the next is
    asked for, and none escapes :func:`box_points` or
    :func:`neighbour_draws`.
    """
    rng = getattr(_local, "rng", None)
    if rng is None:
        rng = _local.rng = np.random.Generator(np.random.Philox(key=[0, 0]))
    state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": None},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for key in keys:
        state["state"]["key"] = key
        rng.bit_generator.state = state
        yield rng


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
    """Mean number of points (k >= 4) or neighbour proposals (k <= 3) one
    replication draws, the anchors not counted."""
    if int(params.k) <= 3:
        return 2.0 * cloud_mass(params)
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


def box_points(params: ModelParams, seed: int, replications):
    """The box points of a block of replications (the k >= 4 draw).

    Returns ``(xy, sizes)``: the points of every replication in turn,
    ``sizes[b]`` of them for replication b.  From each replication's Philox
    stream: the count N ~ Poisson(rho * area), then 2N uniforms placing N
    points in the rectangle of :func:`rcmpaths.model.region_for`.  The keys,
    the rectangle and the mean are worked out once per block.
    """
    box = region_for(params)
    mean = params.rho * box.area
    u = [rng.random((int(rng.poisson(mean)), 2)) for rng in _points_streams(points_keys(seed, replications))]
    corner, size = np.array([[box.min_corner.x, box.min_corner.y], [box.width, box.height]])
    return corner + np.concatenate(u) * size, np.array([len(b) for b in u])


def sample_conditioned_ppp(params: ModelParams, seed: int, replication: int) -> np.ndarray:
    """The anchors at (0, 0) and (anchor_distance, 0), then the
    :func:`box_points` of one replication: an (N + 2, 2) array."""
    xy, _ = box_points(params, seed, (replication,))
    return np.vstack([[[0.0, 0.0], [params.anchor_distance, 0.0]], xy])


def neighbour_draws(slices) -> list:
    """The keyed draws of the anchor neighbourhoods (k <= 3) of the
    replications of ``slices``, a list of ``(params, seed, first, last)``
    whose grid points share one connection function: one ``(n0, v)`` per
    replication, slice by slice, replications ``first`` .. ``last - 1`` of
    each in order.

    From each replication's Philox stream, in this order: the proposal
    counts n0 and n1 of clouds 0 and 1, both Poisson with mean
    :func:`cloud_mass`; then one radial variate per proposal, a Gamma(2/eta)
    variate G for Rayleigh (the distance is (G/beta)**(1/eta)) and a uniform
    U for the other kinds (the distance is reach * sqrt(U)); then, per
    proposal, a uniform angle, a uniform mark and, unless Rayleigh, a uniform
    that accepts it with probability H of its distance.  ``v`` has shape
    (3 or 4, n0 + n1) and holds those variates by row, cloud 0's proposals
    first.  The keys of every slice are folded in one pass, and the mean
    once per slice; only the draws themselves run once per replication.
    :func:`anchor_neighbours` turns the block into points; that part needs
    no random draw and runs once per block.
    """
    spec = slices[0][0].connection
    rayleigh = spec.kind == RAYLEIGH
    shape = 2.0 / spec.eta if rayleigh else None
    seeds, replications, _, _ = slice_replications(slices)
    streams = _points_streams(points_keys(seeds, replications))
    draws = []
    for params, _, first, last in slices:
        mass = cloud_mass(params)
        for rng in islice(streams, last - first):
            n0, n1 = rng.poisson(mass, 2).tolist()
            if rayleigh:
                v = np.empty((3, n0 + n1))
                rng.standard_gamma(shape, out=v[0])
                rng.random(out=v[1:])
            else:
                v = rng.random((4, n0 + n1))
            draws.append((n0, v))
    return draws


def anchor_neighbours(spec: ConnectionSpec, distances, draws: list):
    """The anchors' neighbours of a block of replications, from their
    :func:`neighbour_draws`; ``distances[b]`` is the anchor distance of
    replication b.

    Returns ``(xy, sizes, near)``: the kept points of every replication in
    turn, ``sizes[b]`` of them for replication b, in draw order (so they are
    numbered 2, 3, ... within their replication), and two boolean arrays
    over the points, their edges to anchor 0 and to anchor 1.  A cloud-0
    point is adjacent to anchor 0 and its mark, a uniform below H of its
    distance to anchor 1, makes the edge to anchor 1.  A cloud-1 point is
    adjacent to anchor 1 and is kept when its mark, against H of its
    distance to anchor 0, says it is not adjacent to anchor 0.
    """
    v = np.concatenate([d[1] for d in draws], axis=1)
    n = np.array([d[1].shape[1] for d in draws])
    n0 = np.array([d[0] for d in draws])
    cloud1 = np.repeat(np.tile([False, True], len(draws)), np.column_stack([n0, n - n0]).ravel())
    r = np.repeat(distances, n)
    if spec.kind == RAYLEIGH:
        dist = (v[0] / spec.beta) ** (1.0 / spec.eta)
        keep = np.ones(v.shape[1], dtype=bool)
    else:
        dist = spec.reach * np.sqrt(v[0])
        keep = v[3] < spec.evaluate(dist)
    angle = 2.0 * math.pi * v[1]
    x = np.where(cloud1, r, 0.0) + dist * np.cos(angle)
    y = dist * np.sin(angle)
    dx = x - np.where(cloud1, 0.0, r)
    marked = v[2] < connection_probabilities(spec, dx * dx + y * y)
    keep &= ~(cloud1 & marked)
    sizes = np.bincount(np.repeat(np.arange(len(draws)), n)[keep], minlength=len(draws))
    near = (~cloud1[keep], (cloud1 | marked)[keep])
    return np.column_stack([x[keep], y[keep]]), sizes, near


def connection_probabilities(spec: ConnectionSpec, sq_dists: np.ndarray) -> np.ndarray:
    """Link probabilities from squared distances."""
    return spec.evaluate(np.sqrt(sq_dists))


def draw_edges(spec: ConnectionSpec, seed, replication, i, j, sq_dists) -> np.ndarray:
    """Whether each vertex pair ``{i, j}`` of ``replication`` is an edge: its
    pair-keyed uniform lies below H at the pair's squared distance.

    Every edge, drawn lazily by the sweep counter or all at once by
    :func:`realize_graph`, is decided here, so both agree bit for bit; only
    the anchor edges of a k <= 3 replication are marks of
    :func:`anchor_neighbours` instead.  ``seed``, ``replication``, ``i``,
    ``j`` and ``sq_dists`` broadcast together.
    """
    return pair_uniforms(seed, replication, i, j) < connection_probabilities(spec, sq_dists)


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
    if near is not None:
        # the pairs come row by row: the anchors' own pair is the first, and
        # every pair of non-anchor points follows the 2n - 3 of rows 0 and 1
        iu, ju = (np.concatenate((z[:1], z[2 * n - 3 :])) for z in (iu, ju))
    dx = points[iu, 0] - points[ju, 0]
    dy = points[iu, 1] - points[ju, 1]
    hit = draw_edges(spec, seed, replication, iu, ju, dx * dx + dy * dy)
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


def block_points(slices):
    """What a block of replications draws: the non-anchor points, with their
    edges to the two anchors.

    ``slices`` lists ``(params, seed, first, last)``: replications ``first``
    .. ``last - 1`` of the grid point ``params`` whose grid seed is
    ``seed``.  The grid points share one connection function and one k, and
    may differ in everything else.  Returns ``(xy, sizes, near)``: the
    points of every replication in turn, slice by slice, ``sizes[b]`` of
    them for replication b, in draw order (so they are numbered 2, 3, ...
    within their replication), and two boolean arrays over the points, their
    edges to anchor 0 and to anchor 1.  k <= 3: the anchors' neighbours of
    :func:`anchor_neighbours`, whose anchor edges are its marks.  k >= 4:
    the points of :func:`box_points`, whose anchor edges are drawn by
    :func:`draw_edges`.
    """
    params = slices[0][0]
    seeds, replications, distances, _ = slice_replications(slices)
    if int(params.k) <= 3:
        return anchor_neighbours(params.connection, distances, neighbour_draws(slices))
    boxes = [box_points(p, seed, range(first, last)) for p, seed, first, last in slices]
    xy = np.concatenate([b[0] for b in boxes])
    sizes = np.concatenate([b[1] for b in boxes])
    seed_of, rep_of = np.repeat(seeds, sizes), np.repeat(replications, sizes)
    local = np.arange(2, len(xy) + 2) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    # the anchors sit at (0, 0) and (r, 0)
    x, y = xy[:, 0], xy[:, 1]
    yy = y * y
    near = tuple(
        draw_edges(params.connection, seed_of, rep_of, anchor, local, (x - ax) * (x - ax) + yy)
        for anchor, ax in ((0, 0.0), (1, np.repeat(distances, sizes)))
    )
    return xy, sizes, near


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
    xy, _, near = block_points([(params, seed, replication, replication + 1)])
    points = np.vstack([[[0.0, 0.0], [params.anchor_distance, 0.0]], xy])
    adjacency = _adjacency(points, params.connection, seed, replication, near)
    return GraphRealization(points=points, adjacency=adjacency, seed=seed, replication=replication)
