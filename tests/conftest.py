import math
from collections import Counter

import numpy as np
import pytest

from rcmpaths.model import ConnectionSpec, ModelParams
from rcmpaths.paths import PairStructureCounts
from rcmpaths.sampler import GraphRealization, realize_graph, sample_conditioned_ppp


def build_graph(n: int, edges) -> GraphRealization:
    """Explicit graph on n vertices (anchors at 0 and 1); positions are
    placeholders, only the adjacency matters for combinatorial tests."""
    pts = np.zeros((n, 2))
    pts[:, 0] = np.arange(n, dtype=float)
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return GraphRealization(points=pts, adjacency=adj, seed=0, replication=0)


def small_random_realization(seed: int, replication: int, max_extra: int = 8):
    """A random realization with at most ``max_extra`` non-anchor points,
    suitable for the brute-force oracle.  Varies density and beta with the
    replication index; returns None when the draw exceeds the cap."""
    rho = 0.3 + 0.4 * (replication % 5)
    beta = 0.4 + 0.3 * (replication % 4)
    params = ModelParams(
        rho=rho,
        connection=ConnectionSpec.rayleigh(beta=beta),
        anchor_distance=0.5 + 0.25 * (replication % 3),
        k=3,
        margin=0.8,
    )
    pts = sample_conditioned_ppp(params, seed, replication)
    if len(pts) - 2 > max_extra:
        return None
    return realize_graph(pts, params.connection, seed, replication)


def classify_path_pairs_oracle(pairs: np.ndarray, block: int = 2048) -> PairStructureCounts:
    """Reference pair classifier: compares every ordered pair of paths.

    O(m**2) work in row blocks of ``block`` paths; kept as the oracle for the
    counting-identity classifier in :mod:`rcmpaths.paths`.
    """
    m = len(pairs)
    if m == 0:
        return PairStructureCounts(0, 0, 0, 0, 0)
    first = np.ascontiguousarray(pairs[:, 0])
    second = np.ascontiguousarray(pairs[:, 1])
    sigma0 = sigma11 = sigma12 = sigma22 = 0
    for lo in range(0, m, block):
        hi = min(lo + block, m)
        f_blk = first[lo:hi, None]
        s_blk = second[lo:hi, None]
        same_first = f_blk == first[None, :]
        same_second = s_blk == second[None, :]
        cross_fs = f_blk == second[None, :]
        cross_sf = s_blk == first[None, :]
        shared = (
            same_first.astype(np.int8)
            + same_second.astype(np.int8)
            + cross_fs.astype(np.int8)
            + cross_sf.astype(np.int8)
        )
        sigma0 += int((shared == 0).sum())
        one = shared == 1
        sigma11 += int((one & (same_first | same_second)).sum())
        sigma12 += int((one & (cross_fs | cross_sf)).sum())
        sigma22 += int(((shared == 2) & cross_fs & cross_sf).sum())
    # paths are distinct rows, so "both positions equal" happens only on the
    # diagonal: those are the self-pairs
    return PairStructureCounts(
        sigma0=sigma0, sigma11=sigma11, sigma12=sigma12, sigma21=m, sigma22=sigma22
    )


def alternating_binomial_partial_sum_oracle(sigma: int, m: int) -> int:
    """Reference for the closed-form bracket sum: adds the terms
    (-1)**i * C(sigma, i), i = 0..m, one at a time, in exact integers."""
    total = 0
    for i in range(min(m, sigma) + 1):
        term = math.comb(sigma, i)
        total += term if i % 2 == 0 else -term
    return total


@pytest.fixture
def quadrature_calls(monkeypatch):
    """Counter of the quadrature's kernel-grid builds (``_kernel_grid``) and
    its forward and inverse transforms (``rfftn``, ``irfftn``)."""
    import scipy.fft

    from rcmpaths import analytics

    calls = Counter()

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(analytics, "_kernel_grid")
    counted(scipy.fft, "rfftn")
    counted(scipy.fft, "irfftn")
    return calls
