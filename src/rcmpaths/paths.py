"""Exact combinatorial counting of k-hop simple paths between the anchors.

A k-hop path is a sequence anchor0 = z0, z1, ..., zk = anchor1 with all
vertices distinct and consecutive vertices adjacent.  Paths are listed from
anchor 0, so each undirected path is counted once.

One enumerator, :func:`khop_intermediates`, lists the paths for the sweeps
and for realized graphs alike: a path is a half-path of k // 2 hops from
anchor 0 joined by one edge to a vertex-disjoint half-path of (k - 1) // 2
hops from anchor 1.  It reads edges through a callback, so the sweeps draw
only the pairs a path can use and :func:`khop_paths` reads a
:class:`GraphRealization`'s adjacency matrix.  :func:`iter_khop_paths` is
the depth-first reference it is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ValidationError
from .sampler import GraphRealization

# The most pairs one join draws at once: half-paths multiply with every hop,
# and a k = 3 block joins every anchor-0 neighbour with every anchor-1
# neighbour of its replication, so this, not the number of points, bounds
# the join's memory, about 110 bytes a pair.  Runs this short stay in cache:
# a rho = 5, k = 3 block of 1961 replications (496735 join pairs) peaked at
# 8.0 MB under tracemalloc, mostly its point arrays, against 35.8 MB in runs
# of 1 << 18 pairs, and counted faster (CHANGES.md lists the sizes tried).
_JOIN_PAIRS = 1 << 13


@dataclass(frozen=True)
class PairStructureCounts:
    """Ordered pairs of 3-hop paths, split by how the two paths intersect.

    sigma0   no shared intermediate vertex.
    sigma11  one shared intermediate, same position in both sequences
             (so one anchor edge is shared).
    sigma12  one shared intermediate, opposite positions (no shared edge).
    sigma21  the self-pairs: both intermediates and all edges shared.
    sigma22  both intermediates shared but the paths differ, i.e. one is the
             other with intermediates swapped; only the middle edge is shared.

    The five classes partition all ordered pairs, so their sum is the squared
    path count.  For a pair sharing exactly one intermediate vertex, a shared
    non-anchor edge is impossible (the middle edge would force both
    intermediates to coincide), so no class is missing.
    """

    sigma0: int
    sigma11: int
    sigma12: int
    sigma21: int
    sigma22: int

    @property
    def total(self) -> int:
        return self.sigma0 + self.sigma11 + self.sigma12 + self.sigma21 + self.sigma22


def _pairs_within(seg_a, nb, first_b):
    """Every index pair ``(i, j)`` with ``seg_a[i] == seg_b[j]``, ordered by
    ``i`` and then ``j``, for a non-decreasing ``seg_b`` given by its counts:
    segment ``s`` holds ``nb[s]`` entries from index ``first_b[s]`` on."""
    width = nb[seg_a]
    starts = np.cumsum(width) - width
    i = np.repeat(np.arange(len(seg_a)), width)
    j = np.arange(len(i)) + np.repeat(first_b[seg_a] - starts, width)
    return i, j


def _join(a, b, seg_of, segments: int, linked):
    """Join half-paths ``a`` to half-paths ``b`` of the same point set.

    A half-path is a row across the vertex columns ``a`` (or ``b``).  Returns
    the columns of ``a`` and then of ``b`` for every pair of rows whose
    vertices are disjoint and whose last vertices ``linked`` reports as an
    edge.
    """
    seg_a = seg_of[a[0]]
    nb = np.bincount(seg_of[b[0]], minlength=segments)
    first_b = np.cumsum(nb) - nb
    ends = np.cumsum(nb[seg_a])
    cuts = np.searchsorted(ends, np.arange(_JOIN_PAIRS, ends[-1] if len(ends) else 0, _JOIN_PAIRS)).tolist()
    parts = []
    for lo, hi in zip([0, *cuts], [*cuts, len(seg_a)]):
        i, j = _pairs_within(seg_a[lo:hi], nb, first_b)
        pa, pb = [z[lo:hi][i] for z in a], [z[j] for z in b]
        hit = reduce(np.logical_and, (p != q for p in pa for q in pb), linked(pa[-1], pb[-1]))
        parts.append([z[hit] for z in pa + pb])
    return parts[0] if len(parts) == 1 else [np.concatenate(col) for col in zip(*parts)]


def khop_intermediates(k: int, near, linked, seg_of: np.ndarray, segments: int) -> tuple:
    """Every k-hop path (k >= 2) of many point sets at once.

    The points of all sets are indexed together; ``seg_of[p]`` is the set of
    point ``p``, non-decreasing.  ``near`` holds two boolean arrays over the
    points, their edges to anchor 0 and to anchor 1, and ``linked(u, v)``
    says which of the point pairs ``(u[i], v[i])``, always of one set, are
    edges.  Returns k - 1 arrays holding the paths' intermediate points in
    order from anchor 0.  The first hop of each half-path is its anchor's
    ``near`` row; one hop more is a join with the one-point half-paths of
    every point.
    """
    if k == 2:
        return (np.flatnonzero(near[0] & near[1]),)
    every = [np.arange(len(seg_of))]
    a, b = [np.flatnonzero(near[0])], [np.flatnonzero(near[1])]
    for _ in range(k // 2 - 1):
        a = _join(a, every, seg_of, segments, linked)
    for _ in range((k - 1) // 2 - 1):
        b = _join(b, every, seg_of, segments, linked)
    inter = _join(a, b, seg_of, segments, linked)
    return tuple(inter[: len(a)] + inter[len(a) :][::-1])


def khop_paths(g: GraphRealization, k: int) -> np.ndarray:
    """Every k-hop path of ``g`` as an (m, k + 1) array of vertex rows
    (0, z1, ..., z_{k-1}, 1), in lexicographic order, which is the order of
    :func:`iter_khop_paths`."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    adj = g.adjacency
    if k == 1:
        return np.array([[0, 1]] if adj[0, 1] else [], dtype=np.int64).reshape(-1, 2)
    near = (adj[0, 2:], adj[1, 2:])
    inter = khop_intermediates(
        k, near, lambda u, v: adj[u + 2, v + 2], np.zeros(g.n - 2, dtype=np.int64), 1
    )
    order = np.lexsort(inter[::-1])
    m = len(order)
    return np.column_stack([np.zeros(m, np.int64), *(z[order] + 2 for z in inter), np.ones(m, np.int64)])


def iter_khop_paths(g: GraphRealization, k: int):
    """Yield every k-hop path as a vertex tuple (0, z1, ..., z_{k-1}, 1).

    A depth-first walk from anchor 0: the reference enumerator, kept for the
    tests and the benchmark's re-enumeration check.  The package lists
    paths through :func:`khop_intermediates`.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    adj = g.adjacency
    neighbors = [np.flatnonzero(adj[v]) for v in range(g.n)]
    visited = np.zeros(g.n, dtype=bool)
    visited[0] = True
    path = [0]

    def walk(v: int, depth: int):
        if depth == k - 1:
            if adj[v, 1]:
                yield tuple(path) + (1,)
            return
        for w in neighbors[v]:
            if w == 1 or visited[w]:
                continue
            visited[w] = True
            path.append(int(w))
            yield from walk(int(w), depth + 1)
            path.pop()
            visited[w] = False

    if k == 1:
        if adj[0, 1]:
            yield (0, 1)
        return
    yield from walk(0, 0)


def classify_path_pair_segments(
    z1: np.ndarray, z2: np.ndarray, seg: np.ndarray, segments: int, reversed_too: np.ndarray
) -> np.ndarray:
    """Pair-class counts of many sets of 3-hop paths at once.

    Path ``p`` is the row (z1[p], z2[p]) of set ``seg[p]``; ``seg`` is
    non-decreasing, the rows of a set are distinct, and vertex ids are unique
    across sets.  ``reversed_too[p]`` says whether (z2[p], z1[p]) is also a
    path of the set, which the caller reads off its anchor edges.
    Returns a (segments, 5) int64 array with the columns
    (sigma0, sigma11, sigma12, sigma21, sigma22).  With ``c1``/``c2`` the
    number of paths whose first/second intermediate is a vertex and ``m`` the
    set's path count, the classes follow from counting identities rather than
    from the m**2 ordered pairs:

        sigma11 = sum c1**2 + sum c2**2 - 2m   (share the vertex at one position)
        sigma22 = #paths whose reverse is also a path
        sigma12 = 2 sum c1*c2 - 2 sigma22       (share a vertex across positions)
        sigma21 = m                             (self-pairs)
        sigma0  = m**2 - the other four
    """
    z1 = np.asarray(z1, dtype=np.int64)
    z2 = np.asarray(z2, dtype=np.int64)
    bounds = np.searchsorted(seg, np.arange(segments + 1))
    m = np.diff(bounds)
    out = np.zeros((segments, 5), dtype=np.int64)
    if len(z1) == 0:
        return out

    def per_set(values):
        total = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
        return total[bounds[1:]] - total[bounds[:-1]]

    n = int(max(z1.max(), z2.max())) + 1
    c1 = np.bincount(z1, minlength=n)
    c2 = np.bincount(z2, minlength=n)
    same = per_set(c1[z1] + c2[z2])
    cross = per_set(c2[z1])
    twins = per_set(reversed_too)
    out[:, 1] = same - 2 * m
    out[:, 2] = 2 * cross - 2 * twins
    out[:, 3] = m
    out[:, 4] = twins
    out[:, 0] = m * m - out[:, 1:].sum(axis=1)
    return out
