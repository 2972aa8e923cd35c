"""Exact combinatorial counting of k-hop simple paths between the anchors.

A k-hop path is a sequence anchor0 = z0, z1, ..., zk = anchor1 with all
vertices distinct and consecutive vertices adjacent.  Paths are enumerated
anchored at anchor 0, so each undirected path is counted once.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import OracleSizeError, ValidationError
from .sampler import GraphRealization

_ORACLE_MAX_POINTS = 12


@dataclass(frozen=True)
class PathCount:
    k: int
    count: int


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


def iter_khop_paths(g: GraphRealization, k: int, allowed: np.ndarray | None = None):
    """Yield every k-hop path as a vertex tuple (0, z1, ..., z_{k-1}, 1).

    ``allowed`` optionally masks which vertices may serve as intermediates;
    the anchors are always allowed as endpoints.
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
            if allowed is not None and not allowed[w]:
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


def count_khop_paths(g: GraphRealization, k: int, allowed: np.ndarray | None = None) -> PathCount:
    """Count the paths :func:`iter_khop_paths` yields."""
    return PathCount(k=k, count=sum(1 for _ in iter_khop_paths(g, k, allowed)))


def count_khop_paths_oracle(g: GraphRealization, k: int) -> PathCount:
    """Count k-hop paths by exhaustive ordered-tuple enumeration.

    Checks every ordered (k-1)-tuple of distinct non-anchor vertices; kept
    deliberately independent of the DFS so the two can cross-validate.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    non_anchor = g.n - 2
    if non_anchor > _ORACLE_MAX_POINTS:
        raise OracleSizeError(
            f"oracle limited to {_ORACLE_MAX_POINTS} non-anchor points, got {non_anchor}"
        )
    adj = g.adjacency
    count = 0
    for tup in permutations(range(2, g.n), k - 1):
        seq = (0, *tup, 1)
        if all(adj[seq[i], seq[i + 1]] for i in range(k)):
            count += 1
    return PathCount(k=k, count=count)


def threehop_path_pairs(g: GraphRealization) -> np.ndarray:
    """All 3-hop paths as an (m, 2) array of (z1, z2) intermediate indices."""
    adj = g.adjacency
    a = np.flatnonzero(adj[0])
    b = np.flatnonzero(adj[1])
    a = a[a >= 2]
    b = b[b >= 2]
    if len(a) == 0 or len(b) == 0:
        return np.empty((0, 2), dtype=np.int64)
    aa = np.repeat(a, len(b))
    bb = np.tile(b, len(a))
    keep = (aa != bb) & adj[aa, bb]
    return np.column_stack([aa[keep], bb[keep]]).astype(np.int64)


def classify_path_pair_segments(
    z1: np.ndarray, z2: np.ndarray, seg: np.ndarray, segments: int
) -> np.ndarray:
    """Pair-class counts of many sets of 3-hop paths at once.

    Path ``p`` is the row (z1[p], z2[p]) of set ``seg[p]``; ``seg`` is
    non-decreasing, the rows of a set are distinct, and vertex ids are unique
    across sets.  Returns a (segments, 5) int64 array with the columns
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
    reversed_too = per_set(np.isin(z2 * n + z1, z1 * n + z2))
    out[:, 1] = same - 2 * m
    out[:, 2] = 2 * cross - 2 * reversed_too
    out[:, 3] = m
    out[:, 4] = reversed_too
    out[:, 0] = m * m - out[:, 1:].sum(axis=1)
    return out


def classify_path_pairs(pairs: np.ndarray) -> PairStructureCounts:
    """Classify every ordered pair of 3-hop paths by intersection structure.

    ``pairs`` holds one distinct (z1, z2) row per path.  Ordered pairs (P, Q)
    are binned by how many intermediate vertices they share and, when sharing
    exactly one, whether it sits at the same sequence position in both.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    one_set = np.zeros(len(pairs), dtype=np.int64)
    counts = classify_path_pair_segments(pairs[:, 0], pairs[:, 1], one_set, 1)
    return PairStructureCounts(*(int(c) for c in counts[0]))


def classify_pair_structures(g: GraphRealization) -> PairStructureCounts:
    """Enumerate all 3-hop paths of ``g`` and classify their ordered pairs."""
    return classify_path_pairs(threehop_path_pairs(g))
