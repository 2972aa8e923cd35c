"""Poisson sampling and graph realization.

The two anchors are always placed at (0, 0) and (anchor_distance, 0); the
model is isotropic, so fixing the axis loses no generality.

This module alone decides what a replication of a given k draws.  One call,
:func:`block_points`, draws a block of replications for every k >= 2.  A
block lists slices, runs of replications of one grid point each, and its
grid points share one connection function and one k but may differ in
density, separation and seed.  Every variate is a keyed uniform of the
point stream (:func:`rcmpaths.rng.keyed_uniforms`), keyed by the grid seed,
the replication, the draw (one of the ``_COUNT`` .. ``_THIN`` fields) and
the variate's number within its replication, so the whole block is drawn in
one vectorised pass and any cut of it into blocks gives the same bits.

A k-hop path passes only through points within k // 2 hops of an anchor,
and a replication draws exactly those, in the whole plane, by exploring its
graph from the anchors one generation at a time (:func:`anchor_neighbours`;
Penrose, Adv. Appl. Probab. 23, 1991).  Generation 1, all that k <= 3
draws, is the anchors' neighbours: cloud 0, a Poisson process of intensity
rho * H(|z - x|), each point marked with its edge to anchor y, and cloud 1,
of intensity rho * H(|z - y|), kept where its mark says the point is *not*
adjacent to x.  Then each point v of a generation below k // 2 draws a
process of intensity rho * H(|z - v|), kept where its marks say a point is
adjacent to no vertex numbered below v.  Vertices are explored in number
order, so by the thinning property these are exactly the unexplored points
adjacent to v, their parent; they have no anchor edge.

Every other edge is decided by :func:`draw_edges`, which nothing outside
this module calls, from the lower vertex's edge key (folded once per
vertex) and the upper vertex's index, save where the exploration decided it
(:func:`_parent_rule`): :func:`block_points`, :func:`anchor_edges` (k = 1)
and :func:`sample_realization` all draw the edge-stream uniform of the grid
seed, replication and pair.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, _int_problems
from .model import RAYLEIGH, ConnectionSpec, ModelParams, cloud_mass
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
# key; a _THIN mark is keyed by a proposal and a vertex,
# keyed_uniforms(fold_keys(fold_keys(key, _THIN), proposal), vertex).
_COUNT, _RADIUS, _ANGLE, _MARK, _ACCEPT, _THIN = range(6)


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
    """Mean number of proposals one replication draws, the anchors not
    counted: 2m at k = 2 and 3, m the :func:`cloud_mass`, and at k >= 4 the
    estimate 2m(1 + m + ... + m**(k // 2 - 1)), as though every proposal
    were kept; k = 1 draws none."""
    m, generations = cloud_mass(params), int(params.k) // 2
    # 1 + m + ... + m**(generations - 1), by Horner's rule
    total = 0.0
    for _ in range(generations):
        total = total * m + 1.0
    return 2.0 * m * total


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


def _proposals(spec: ConnectionSpec, keys, owner, number, *fields):
    """The proposals ``(owner, number)`` of a cloud of intensity rho * H
    about a centre, for the replications' stream keys ``keys``.

    Proposal i lies at a distance from its centre drawn from ``_RADIUS``
    variate i: a Gamma(2/eta) variate G for Rayleigh (the distance is
    (G/beta)**(1/eta); -log1p(-U) at eta = 2, else
    :func:`rcmpaths.rng.keyed_gamma`), reach * sqrt(U) for the other kinds,
    which then accept it when its ``_ACCEPT`` uniform lies below H of the
    distance.  Its angle is 2 pi times its ``_ANGLE`` uniform.  Returns
    ``(dx, dy, keep, *u)``: the offsets from the centres, whether the kind
    accepts each proposal, and its uniforms of the further draws ``fields``
    (drawn in the same pass).
    """
    rayleigh = spec.kind == RAYLEIGH
    u = _uniforms(keys, [_RADIUS, _ANGLE, *fields] + ([] if rayleigh else [_ACCEPT]), owner, number)
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
        keep = u[:, -1] < spec.evaluate(dist)
    angle = 2.0 * math.pi * u[:, 1]
    return (dist * np.cos(angle), dist * np.sin(angle), keep, *u[:, 2 : 2 + len(fields)].T)


def _generation(spec, keys, mass, distances, xy, sizes, front, drawn):
    """One generation of the exploration: the points that the rows
    ``front`` of ``xy`` find, ``xy`` holding the points so far, ``sizes[b]``
    of them for replication b, in vertex order, and ``drawn[b]`` being the
    proposals replication b drew.  Vertex v, numbered n, draws its count,
    Poisson with mean ``mass``, from its ``_COUNT`` uniform n; its
    proposals, numbered after every earlier one of the replication, lie about
    v (:func:`_proposals`), and z is kept when its ``_THIN`` mark for each
    vertex u numbered below n is at least H(|z - u|).  Returns ``(z, owner,
    parent, drawn)``: the kept points in proposal order, their
    replications, their parents' numbers and the new proposal counts."""
    starts = np.cumsum(sizes) - sizes
    home = np.repeat(np.arange(len(sizes)), sizes)[front]
    local = front - starts[home] + 2
    counts = poisson_counts(mass[home], keyed_uniforms(fold_keys(keys[home], _COUNT), local))
    per_replication = np.bincount(home, counts, len(sizes)).astype(np.int64)
    owner, rank = _variates(per_replication)
    number = drawn[owner] + rank
    src = np.repeat(front, counts)
    parent = np.repeat(local, counts)
    dx, dy, keep = _proposals(spec, keys, owner, number)
    zx, zy = xy[src, 0] + dx, xy[src, 1] + dy
    # every vertex u numbered below the parent of each proposal the kind
    # accepts; vx and vy hold the points, then anchor 0 and anchor 1 of
    # every replication
    candidates = np.flatnonzero(keep)
    pair, u = _variates(parent[candidates])
    pair = candidates[pair]
    b = owner[pair]
    row = np.where(u < 2, len(xy) + u * len(sizes) + b, starts[b] + u - 2)
    vx = np.concatenate([xy[:, 0], np.zeros(len(sizes)), distances])
    vy = np.concatenate([xy[:, 1], np.zeros(2 * len(sizes))])
    ex, ey = zx[pair] - vx[row], zy[pair] - vy[row]
    h = connection_probabilities(spec, ex * ex + ey * ey)
    # a mark at or above H says "not adjacent", whatever it is where H = 0
    drawable = np.flatnonzero(h > 0.0)
    marks = fold_keys(fold_keys(keys, _THIN)[owner[pair[drawable]]], number[pair[drawable]])
    adjacent = keyed_uniforms(marks, u[drawable]) < h[drawable]
    keep[pair[drawable[adjacent]]] = False
    return np.column_stack([zx[keep], zy[keep]]), owner[keep], parent[keep], drawn + per_replication


def anchor_neighbours(slices, layout):
    """The points within k // 2 hops of an anchor of the replications of
    ``slices``, whose grid points share one connection function and one k
    and whose :func:`slice_replications` are ``layout``.

    Each replication draws the proposal counts n0 and n1 of clouds 0 and 1,
    Poisson with mean :func:`cloud_mass`, from its ``_COUNT`` uniforms 0
    and 1; proposals 0 .. n0 - 1 lie about anchor 0 and the rest about
    anchor 1 (:func:`_proposals`).  A cloud-0 point's ``_MARK`` uniform,
    below H of its distance to anchor 1, makes that edge; a cloud-1 point
    is kept when its mark, against H of its distance to anchor 0, says it is
    not adjacent to anchor 0.  Each later generation is a
    :func:`_generation` of the last.

    Returns ``(xy, sizes, near, parent)``: the points of every replication
    in turn, ``sizes[b]`` of them for replication b, in vertex order
    (numbered 2, 3, ... within their replication, generation by generation,
    each in proposal order), their edges to anchor 0 and to anchor 1 (two
    boolean arrays), and their parents' numbers: the anchor of a cloud's
    points, the finding point of a later one.
    """
    params = slices[0][0]
    spec = params.connection
    seeds, replications, distances, ends = layout
    keys = stream_keys(seeds, replications, STREAM_POINTS)
    mass = np.repeat([cloud_mass(p) for p, _, _, _ in slices], np.diff(ends, prepend=0))
    clouds = poisson_counts(mass[:, None], keyed_uniforms(fold_keys(keys, _COUNT)[:, None], np.arange(2)))
    drawn = clouds.sum(axis=1)
    owner, number = _variates(drawn)
    dx, y, keep, mark = _proposals(spec, keys, owner, number, _MARK)
    cloud1 = number >= clouds[owner, 0]
    r = distances[owner]
    x = np.where(cloud1, r, 0.0) + dx
    ax = x - np.where(cloud1, 0.0, r)
    marked = mark < connection_probabilities(spec, ax * ax + y * y)
    keep &= ~(cloud1 & marked)
    sizes = np.bincount(owner[keep], minlength=len(clouds))
    xy = np.column_stack([x[keep], y[keep]])
    near = (~cloud1[keep], (cloud1 | marked)[keep])
    parent = cloud1[keep].astype(np.int64)
    front = np.arange(len(xy))
    for _ in range(int(params.k) // 2 - 1):
        z, found, parents, drawn = _generation(spec, keys, mass, distances, xy, sizes, front, drawn)
        # each replication's new points follow its earlier ones
        order = np.argsort(np.concatenate([np.repeat(np.arange(len(sizes)), sizes), found]), kind="stable")
        front = np.flatnonzero(order >= len(xy))
        xy = np.concatenate([xy, z])[order]
        near = tuple(np.concatenate([a, np.zeros(len(z), dtype=bool)])[order] for a in near)
        parent = np.concatenate([parent, parents])[order]
        sizes = sizes + np.bincount(found, minlength=len(sizes))
    return xy, sizes, near, parent


def connection_probabilities(spec: ConnectionSpec, sq_dists: np.ndarray) -> np.ndarray:
    """Link probabilities from squared distances."""
    return spec.evaluate(np.sqrt(sq_dists))


def draw_edges(spec: ConnectionSpec, keys, j, sq_dists) -> np.ndarray:
    """Whether each vertex pair ``{i, j}``, i < j, is an edge: its
    edge-stream uniform, the fold of ``(seed, replication, STREAM_EDGES, i,
    j)``, lies below H at its squared distance.  ``keys`` are the lower
    vertices' edge keys, the fold of ``(seed, replication, STREAM_EDGES,
    i)``, folded once per vertex by the callers, and ``j`` the upper
    vertices' indices; all three broadcast together.
    The anchor edges of the anchors' neighbours are marks of
    :func:`anchor_neighbours` instead, and :func:`_parent_rule` overrides
    the draw where the exploration decided the edge.
    """
    return keyed_uniforms(keys, j) < connection_probabilities(spec, sq_dists)


def _parent_rule(hit, lower, parent) -> np.ndarray:
    """The edges of vertex pairs whose drawn edges are ``hit``, whose lower
    vertices are numbered ``lower`` and whose upper vertices' parents are
    numbered ``parent``: an edge to the parent, none to a vertex numbered
    below it (the upper vertex was kept as adjacent to none of them), and
    the draw otherwise."""
    return (lower == parent) | ((lower > parent) & hit)


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


def _adjacency(points: np.ndarray, spec: ConnectionSpec, seed: int, replication: int, near=None, parent=None):
    """The symmetric adjacency of ``points`` with every pair's edge drawn by
    :func:`draw_edges`, except, when ``near`` and ``parent`` are given, the
    edges between an anchor and a non-anchor point, which are the rows
    ``near``, and those :func:`_parent_rule` decides from the points'
    parents' numbers ``parent``."""
    n = len(points)
    iu, ju = np.triu_indices(n, k=1)
    dx = points[iu, 0] - points[ju, 0]
    dy = points[iu, 1] - points[ju, 1]
    keys = fold_keys(stream_keys(seed, replication, STREAM_EDGES), np.arange(n, dtype=np.uint64))
    hit = draw_edges(spec, keys[iu], ju, dx * dx + dy * dy)
    if parent is not None:
        # the anchors have no parent
        hit = _parent_rule(hit, iu, np.concatenate([[-1, -1], parent])[ju])
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[iu[hit], ju[hit]] = True
    if near is not None:
        adjacency[0, 2:], adjacency[1, 2:] = near
    adjacency |= adjacency.T
    return adjacency


def block_points(slices, layout):
    """What a block of replications draws: the non-anchor points and their
    edges.

    ``slices`` lists ``(params, seed, first, last)``: replications ``first``
    .. ``last - 1`` of the grid point ``params`` whose grid seed is
    ``seed``, and ``layout`` is their :func:`slice_replications`.  The grid
    points share one connection function and one k >= 2.  Returns ``(xy,
    owner, near, linked)``: the :func:`anchor_neighbours` of every
    replication in turn, in vertex order (numbered 2, 3, ... within their
    replication), the block position of each one's replication, their edges
    to anchor 0 and to anchor 1, and ``linked(u, v)``, the edges of the
    point pairs ``(u[i], v[i])``, each of one replication (None at k = 2,
    which folds no edge key): :func:`draw_edges` from the edge keys, folded
    once per block and point, and at k >= 4, where a point's parent may be
    another point, :func:`_parent_rule`.
    """
    params = slices[0][0]
    spec, k = params.connection, int(params.k)
    seeds, replications, _, _ = layout
    xy, sizes, near, parent = anchor_neighbours(slices, layout)
    owner, number = _variates(sizes)
    if k == 2:
        return xy, owner, near, None
    # vertex index within its replication, below which lie the anchors, 0 and
    # 1; of two points of one replication the lower row is the lower vertex
    local = number + 2
    keys = fold_keys(stream_keys(seeds, replications, STREAM_EDGES)[owner], local)
    x, y = xy[:, 0], xy[:, 1]

    def linked(u, v):
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        dx, dy = x[u] - x[v], y[u] - y[v]
        hit = draw_edges(spec, keys[lo], local[hi], dx * dx + dy * dy)
        return _parent_rule(hit, local[lo], parent[hi]) if k >= 4 else hit

    return xy, owner, near, linked


def sample_realization(params: ModelParams, seed: int, replication: int) -> GraphRealization:
    """Sample one replication's points and realize its graph, with the draws
    the sweep counter makes for it, so both find the same paths.

    The points are the anchors and the :func:`anchor_neighbours` of the
    replication; their edges to the anchors are its ``near`` rows, and every
    other edge, the anchors' own included, is drawn by :func:`draw_edges`,
    save those that :func:`_parent_rule` decides.  Seeds and replication indices outside [0, 2**64) raise
    ``ValidationError``.
    """
    _refuse_bad_keys(seed, replication)
    slices = [(params, seed, replication, replication + 1)]
    xy, _, near, parent = anchor_neighbours(slices, slice_replications(slices))
    points = np.vstack([[[0.0, 0.0], [params.anchor_distance, 0.0]], xy])
    adjacency = _adjacency(points, params.connection, seed, replication, near, parent)
    return GraphRealization(points=points, adjacency=adjacency, seed=seed, replication=replication)
