import math
from itertools import permutations

import numpy as np
import pytest

from rcmpaths.analytics import AnalyticMoments, QuadratureSpec
from rcmpaths.errors import ValidationError
from rcmpaths.model import RAYLEIGH, ConnectionSpec, ModelParams
from rcmpaths.paths import PairStructureCounts
from rcmpaths.sampler import GraphRealization, realize_graph, sample_conditioned_ppp

# one connection function of each kind, and Rayleigh with eta != 2
CONNECTIONS = (
    ConnectionSpec.rayleigh(beta=1.0),
    ConnectionSpec.rayleigh(beta=0.7, eta=3.0),
    ConnectionSpec.hard_disk(0.8),
    ConnectionSpec.tabulated([(0.0, 0.9), (0.5, 0.7), (1.0, 0.35), (1.5, 0.0)]),
)

_ORACLE_MAX_POINTS = 12


class OracleSizeError(ValueError):
    """The brute-force oracle was asked for an instance above its size guard."""


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


def count_khop_paths_oracle(g: GraphRealization, k: int) -> int:
    """Count k-hop paths by exhaustive ordered-tuple enumeration.

    Checks every ordered (k-1)-tuple of distinct non-anchor vertices; kept
    deliberately independent of the half-path join and of the DFS so the
    three can cross-validate.
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
    return count


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


def _is_gaussian(spec: ConnectionSpec) -> bool:
    return spec.kind == RAYLEIGH and spec.eta == 2.0


def mc_mean(params: ModelParams, samples: int, seed: int) -> float:
    """Monte Carlo reference for the expected k-hop count (k >= 2), an
    independent cross-check of the grid quadrature: importance-samples the
    intermediate chain, with Gaussian per-hop proposals for Rayleigh with
    eta = 2 and uniform-in-box ones otherwise."""
    spec = params.connection
    r = params.anchor_distance
    k = int(params.k)
    rng = np.random.default_rng(seed)
    n = samples
    y = np.array([r, 0.0])
    if _is_gaussian(spec):
        sigma = math.sqrt(1.0 / (2.0 * spec.beta))
        z = np.zeros((n, 2))
        for _ in range(k - 1):
            z = z + rng.normal(0.0, sigma, size=(n, 2))
        w = (math.pi / spec.beta) ** (k - 1) * spec.kernel(np.hypot(z[:, 0] - y[0], z[:, 1] - y[1]))
        return params.rho ** (k - 1) * float(w.mean())
    c = spec.reach * k
    area = (r + 2 * c) * (2 * c)
    pts = np.empty((n, k - 1, 2))
    pts[:, :, 0] = rng.uniform(-c, r + c, size=(n, k - 1))
    pts[:, :, 1] = rng.uniform(-c, c, size=(n, k - 1))
    w = spec.kernel(np.hypot(pts[:, 0, 0], pts[:, 0, 1]))
    for i in range(k - 2):
        d = pts[:, i + 1] - pts[:, i]
        w = w * spec.kernel(np.hypot(d[:, 0], d[:, 1]))
    w = w * spec.kernel(np.hypot(pts[:, k - 2, 0] - y[0], pts[:, k - 2, 1] - y[1]))
    return params.rho ** (k - 1) * area ** (k - 1) * float(w.mean())


def mc_variance_terms(params: ModelParams, samples: int, seed: int) -> AnalyticMoments:
    """Monte Carlo reference for the 3-hop variance and its pair-class terms,
    with the same proposals as :func:`mc_mean`."""
    spec = params.connection
    r = params.anchor_distance
    rho = params.rho
    rng = np.random.default_rng(seed)
    n = samples
    x = np.zeros(2)
    y = np.array([r, 0.0])

    def hk(a, b):
        d = a - b
        return spec.kernel(np.hypot(d[:, 0], d[:, 1]))

    if _is_gaussian(spec):
        sigma = math.sqrt(1.0 / (2.0 * spec.beta))
        scale = math.pi / spec.beta

        def gauss(center):
            return center + rng.normal(0.0, sigma, size=(n, 2))

        u = gauss(np.broadcast_to(x, (n, 2)))
        z1 = gauss(u)
        z2 = gauss(u)
        s11 = 2.0 * rho**3 * scale**3 * float((hk(z1, y[None, :]) * hk(z2, y[None, :])).mean())
        u = gauss(np.broadcast_to(x, (n, 2)))
        z = gauss(u)
        w = gauss(u)
        s12 = 2.0 * rho**3 * scale**3 * float(
            (hk(u, y[None, :]) * hk(z, x[None, :]) * hk(w, y[None, :])).mean()
        )
        zz = gauss(np.broadcast_to(x, (n, 2)))
        ww = gauss(zz)
        s22 = rho**2 * scale**2 * float(
            (hk(ww, y[None, :]) * hk(ww, x[None, :]) * hk(zz, y[None, :])).mean()
        )
    else:
        c = spec.reach * 2.0
        area = (r + 2 * c) * (2 * c)

        def box():
            p = np.empty((n, 2))
            p[:, 0] = rng.uniform(-c, r + c, size=n)
            p[:, 1] = rng.uniform(-c, c, size=n)
            return p

        u, z1, z2 = box(), box(), box()
        prod = hk(u, x[None, :]) * hk(z1, u) * hk(z1, y[None, :]) * hk(z2, u) * hk(z2, y[None, :])
        s11 = 2.0 * rho**3 * area**3 * float(prod.mean())
        u, z, w = box(), box(), box()
        prod = (
            hk(u, x[None, :])
            * hk(u, y[None, :])
            * hk(z, x[None, :])
            * hk(z, u)
            * hk(w, u)
            * hk(w, y[None, :])
        )
        s12 = 2.0 * rho**3 * area**3 * float(prod.mean())
        zz, ww = box(), box()
        prod = (
            hk(zz, x[None, :])
            * hk(ww, zz)
            * hk(ww, y[None, :])
            * hk(ww, x[None, :])
            * hk(zz, y[None, :])
        )
        s22 = rho**2 * area**2 * float(prod.mean())

    mean = mc_mean(params, samples, seed)
    return AnalyticMoments.from_terms(mean, s11, s12, s22)


def _oracle_grid(params: ModelParams, quad):
    """The grid of the oracles for ``params``: the step of ``quad`` (by
    default the sigma22 grid's), with r on a node unless r is at most half
    a step, and an extent that also holds the chain, 1.2 reach sqrt(k) for
    Rayleigh and k reach + 2 steps for a compact kernel (k >= 3); returns
    the step s, 2m + 1 nodes per axis and the kernel grid h."""
    quad = quad or QuadratureSpec.default_for(params)
    spec, r, k = params.connection, params.anchor_distance, max(int(params.k), 3)
    nodes = round(r / quad.grid_step)
    s = r / nodes if nodes else quad.grid_step
    chain = 1.2 * spec.reach * math.sqrt(k) if spec.kind == RAYLEIGH else k * spec.reach + 2 * s
    m = int(math.ceil(max(quad.grid_extent, chain) / s - 1e-9))
    c = np.arange(-m, m + 1) * s
    xx, yy = np.meshgrid(c, c, indexing="ij")
    return s, m, params.connection.kernel(np.hypot(xx, yy))


def _oracle_chain(params: ModelParams, quad, hops: int):
    """The chain h, h*h, ..., h^{*hops} by full ``fftconvolve``
    convolutions, each scaled by the cell area, and h^{*hops} at (r, 0): the
    node there, or linear between the two x-nodes beside r when r is at most
    half a step."""
    from scipy.signal import fftconvolve

    s, m, h = _oracle_grid(params, quad)
    chain = [h]
    for _ in range(hops - 1):
        chain.append(fftconvolve(chain[-1], h, mode="same") * (s * s))
    t = params.anchor_distance / s
    i0 = int(math.floor(t))
    frac = t - i0
    near = chain[-1][m + i0 : m + i0 + 2, m]
    value = float(near[0] * (1.0 - frac) + near[1] * frac) if frac else float(near[0])
    return chain, value, s, m


def quadrature_mean_oracle(params: ModelParams, quad=None) -> float:
    """Grid reference for ``mean_khop_numeric`` (k >= 2), independent of its
    radial route: the k - 1 chain convolutions on a square grid, each a full
    ``scipy.signal.fftconvolve``, and the read-off at r.  A compact kernel's
    edge falls on lattice points, so the grid is biased by up to a few 1e-3
    there, and not monotonically in the step."""
    k = int(params.k)
    return params.rho ** (k - 1) * _oracle_chain(params, quad, k)[1]


def quadrature_variance_oracle(params: ModelParams, quad=None) -> AnalyticMoments:
    """Grid reference for ``variance_terms_numeric``: the chain and the
    read-off of :func:`quadrature_mean_oracle`, H evaluated about x and
    about y on the free vertex's grid, and sigma22 by a full
    ``scipy.signal.fftconvolve`` of q with h.  Its sigma22 runs on the
    nodes the package's sigma22 grid sums over, so the two agree to
    rounding; its other terms share the grid's bias."""
    from scipy.signal import fftconvolve

    (h, h2, _), h3_at_r, s, m = _oracle_chain(params, quad, 3)
    spec, rho = params.connection, params.rho
    nr = int(round(params.anchor_distance / s))
    cell = s * s
    ux, uy = np.meshgrid(np.arange(-m, m + nr + 1) * s, np.arange(-m, m + 1) * s, indexing="ij")
    h_at_x = spec.kernel(np.hypot(ux, uy))
    h_at_y = spec.kernel(np.hypot(ux - nr * s, uy))
    h2_at_x = np.pad(h2, ((0, nr), (0, 0)))
    h2_at_y = np.pad(h2, ((nr, 0), (0, 0)))
    s11 = rho**3 * cell * float((h_at_x * h2_at_y**2).sum() + (h_at_y * h2_at_x**2).sum())
    s12 = 2.0 * rho**3 * cell * float((h_at_x * h_at_y * h2_at_x * h2_at_y).sum())
    q = h_at_x * h_at_y
    s22 = rho**2 * cell * float((q * fftconvolve(q, h, mode="same") * cell).sum())
    return AnalyticMoments.from_terms(rho**2 * h3_at_r, s11, s12, s22)


@pytest.fixture
def quadrature_calls(monkeypatch):
    """Log of the quadrature's evaluations of H (``ConnectionSpec.kernel``
    on an array), of ``scipy.special.j0`` and of the ``scipy.fft``
    transforms, one ``(name, shape)`` entry per call in call order, the
    shape being that of the call's first argument's result for H and of its
    first argument otherwise."""
    import scipy.fft
    import scipy.special

    log = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(x, *args, **kwargs):
            log.append((name, np.shape(x)))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    real_kernel = ConnectionSpec.kernel

    def kernel(self, r):
        out = real_kernel(self, r)
        if np.ndim(out):
            log.append(("kernel", np.shape(out)))
        return out

    monkeypatch.setattr(ConnectionSpec, "kernel", kernel)
    counted(scipy.special, "j0")
    for name in ("rfft", "irfft", "fft", "ifft", "rfft2", "irfft2", "fft2", "ifft2", "rfftn", "irfftn"):
        counted(scipy.fft, name)
    return log
