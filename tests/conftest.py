import math
from itertools import permutations

import numpy as np
import pytest

from rcmpaths.analytics import AnalyticMoments, QuadratureSpec
from rcmpaths.errors import ValidationError
from rcmpaths.experiments import PAIR_CLASSES, ExperimentConfig, MomentReport, _attach_references
from rcmpaths.model import RAYLEIGH, ConnectionSpec, ModelParams
from rcmpaths.moments import (
    LOWER_BOUND,
    UPPER_BOUND,
    ExistenceBracket,
    alternating_binomial_partial_sum,
    bonferroni_bound_order2,
    quadratic_existence_bound,
)
from rcmpaths.paths import PairStructureCounts, classify_path_pair_segments, khop_paths
from rcmpaths.rng import STREAM_EDGES, STREAM_POINTS, fold_keys, keyed_uniforms, poisson_counts, stream_keys
from rcmpaths.sampler import (
    _COUNT,
    GraphRealization,
    _adjacency,
    _refuse_bad_keys,
    _uniforms,
    _variates,
    slice_replications,
)

# one connection function of each kind, and Rayleigh with eta != 2
CONNECTIONS = (
    ConnectionSpec.rayleigh(beta=1.0),
    ConnectionSpec.rayleigh(beta=0.7, eta=3.0),
    ConnectionSpec.hard_disk(0.8),
    ConnectionSpec.tabulated([(0.0, 0.9), (0.5, 0.7), (1.0, 0.35), (1.5, 0.0)]),
)

_ORACLE_MAX_POINTS = 12

_MASK = (1 << 64) - 1


def _mix64_int(z: int) -> int:
    # the splitmix64 finalizer on plain Python ints
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def fold(seed: int, *fields) -> int:
    """The package's keyed hash in Python integers, the oracle of its uint64
    passes (rcmpaths.rng): fold ``seed`` and each integer field into a
    64-bit hash."""
    h = _mix64_int((seed & _MASK) ^ 0x5851F42D4C957F2D)
    for f in fields:
        h = _mix64_int(((h + 0x9E3779B97F4A7C15) & _MASK) ^ (int(f) & _MASK))
    return h


def pair_uniforms(seed, replication, i, j):
    """Uniform(0, 1) variates keyed by the sorted vertex pair ``{i, j}``:
    the ``keyed_uniforms`` of the edge stream with ``a = min(i, j)`` and
    ``b = max(i, j)``, the reference definition of a pair's edge draw.
    ``seed``, ``replication``, ``i`` and ``j`` may be scalars or
    broadcastable integer arrays; the result is symmetric in (i, j)."""
    ii = np.asarray(i, dtype=np.uint64)
    jj = np.asarray(j, dtype=np.uint64)
    keys = fold_keys(stream_keys(seed, replication, STREAM_EDGES), np.minimum(ii, jj))
    return keyed_uniforms(keys, np.maximum(ii, jj))


def realize_graph(points, spec: ConnectionSpec, seed: int, replication: int) -> GraphRealization:
    """The full-matrix draw: every pairwise edge of ``points`` (the anchors
    first) by ``rcmpaths.sampler.draw_edges``, the oracle of the lazy draws.
    Seeds and replication indices outside [0, 2**64) raise
    ``ValidationError``."""
    _refuse_bad_keys(seed, replication)
    points = np.asarray(points, dtype=float)
    if len(points) < 2:
        raise ValidationError("need the two anchors at indices 0 and 1")
    adjacency = _adjacency(points, spec, seed, replication)
    return GraphRealization(points=points, adjacency=adjacency, seed=seed, replication=replication)


def classify_pair_structures(g: GraphRealization) -> PairStructureCounts:
    """List all 3-hop paths of ``g`` and classify their ordered pairs with
    the package's counting identities, as the sweep does."""
    z1, z2 = khop_paths(g, 3)[:, 1:3].T
    # the reverse (z2, z1) shares the middle edge, so it is a path exactly
    # when z2 is adjacent to anchor 0 and z1 to anchor 1
    reversed_too = g.adjacency[0, z2] & g.adjacency[1, z1]
    counts = classify_path_pair_segments(z1, z2, np.zeros(len(z1), dtype=np.int64), 1, reversed_too)
    return PairStructureCounts(*(int(c) for c in counts[0]))

# The point-stream draws of the box oracle's coordinates
_BOX_X, _BOX_Y = 5, 6


def box_bounds(params: ModelParams):
    """The box oracle's rectangle ``((x0, y0), (x1, y1))``: the anchors'
    bounding box grown by the margin on every side."""
    m, r = params.margin, params.anchor_distance
    return (-m, -m), (r + m, m)


def box_points(slices, layout):
    """The box oracle: a Poisson process of intensity rho on the
    :func:`box_bounds` of each grid point, for the replications of
    ``slices``, whose ``slice_replications`` are ``layout``.

    Returns ``(xy, sizes)``: the points of every replication in turn,
    ``sizes[b]`` of them for replication b.  Each replication draws its
    count N ~ Poisson(rho * area) from its ``_COUNT`` uniform 0, and point i
    from its ``_BOX_X`` and ``_BOX_Y`` uniforms i.
    """
    seeds, replications, _, ends = layout
    boxes = [(p.rho, box_bounds(p)) for p, _, _, _ in slices]
    keys = stream_keys(seeds, replications, STREAM_POINTS)
    means = np.repeat([rho * ((x1 - x0) * (y1 - y0)) for rho, ((x0, y0), (x1, y1)) in boxes], np.diff(ends, prepend=0))
    sizes = poisson_counts(means, keyed_uniforms(fold_keys(keys, _COUNT), 0))
    xy = _uniforms(keys, [_BOX_X, _BOX_Y], *_variates(sizes))
    # each slice's points are a run of rows
    bounds = np.cumsum(sizes)[ends - 1].tolist()
    for (_, ((x0, y0), (x1, y1))), lo, hi in zip(boxes, [0, *bounds], bounds):
        xy[lo:hi] *= (x1 - x0, y1 - y0)
        xy[lo:hi] += (x0, y0)
    return xy, sizes


def sample_conditioned_ppp(params: ModelParams, seed: int, replication: int) -> np.ndarray:
    """The anchors at (0, 0) and (anchor_distance, 0), then the
    :func:`box_points` of one replication: an (N + 2, 2) array."""
    slices = [(params, seed, replication, replication + 1)]
    xy, _ = box_points(slices, slice_replications(slices))
    return np.vstack([[[0.0, 0.0], [params.anchor_distance, 0.0]], xy])


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


def existence_brackets_oracle(counts: np.ndarray, orders) -> tuple[ExistenceBracket, ...]:
    """Reference for one row of ``bracket_rows``: for each order, the exact
    sum over the distinct counts of the closed-form bracket sum times the
    count's frequency, divided by R."""
    values, freq = np.unique(counts, return_counts=True)
    groups = list(zip(values.tolist(), freq.tolist()))
    brackets = []
    for m in orders:
        partial = sum(alternating_binomial_partial_sum(sigma, m) * n for sigma, n in groups) / len(counts)
        side = UPPER_BOUND if m % 2 == 0 else LOWER_BOUND
        brackets.append(
            ExistenceBracket(order=m, partial_sum=partial, side=side, existence_estimate=1.0 - partial)
        )
    return tuple(brackets)


def mean_se(x: np.ndarray) -> float | None:
    if len(x) < 2:
        return None
    return float(x.std(ddof=1) / math.sqrt(len(x)))


def pair_stats(pair_classes: np.ndarray):
    """Each column's mean and :func:`mean_se` of the (R, 5) pair classes,
    from one contiguous (5, R) float copy whose rows reduce as lone columns
    do."""
    vals = np.ascontiguousarray(pair_classes.T, dtype=np.float64)
    r = vals.shape[1]
    ses = (vals.std(axis=1, ddof=1) / math.sqrt(r)).tolist() if r >= 2 else [None] * len(vals)
    return vals.mean(axis=1).tolist(), ses


def variance_se(x: np.ndarray) -> float | None:
    """Standard error of the unbiased sample variance, from the fourth
    central moment (valid for non-normal counts)."""
    r = len(x)
    if r < 2:
        return None
    d = x - x.mean()
    s2 = float(d @ d) / (r - 1)
    m4 = float(np.mean(d**4))
    var_s2 = (m4 - (r - 3) / (r - 1) * s2 * s2) / r
    return math.sqrt(max(var_s2, 0.0))


def summarize_grid_point(
    grid_index: int,
    grid_seed: int,
    params: ModelParams,
    config: ExperimentConfig,
    counts: np.ndarray,
    pair_classes: np.ndarray | None,
) -> MomentReport:
    """Reference for the sweep's summary pass: the :class:`MomentReport` of
    one grid point, from its own counts and pair classes alone."""
    r = len(counts)
    mean = float(counts.mean())
    variance = float(counts.var(ddof=1)) if r >= 2 else None
    zero_freq = float(np.mean(counts == 0))
    zero_se = math.sqrt(zero_freq * (1.0 - zero_freq) / r) if r >= 2 else None

    analytic_mean, analytic_variance, numeric_mean, numeric_variance = _attach_references(params, config)

    pair_means = None
    if pair_classes is not None:
        means, ses = pair_stats(pair_classes)
        pair_means = {name: {"mean": m, "se": se} for name, m, se in zip(PAIR_CLASSES, means, ses)}

    if analytic_mean is not None and analytic_variance is not None:
        source, ref_mean, ref_var = "analytic", analytic_mean, analytic_variance
    elif numeric_mean is not None and numeric_variance is not None:
        source, ref_mean, ref_var = "numeric", numeric_mean, numeric_variance
    else:
        source, ref_mean, ref_var = "empirical", mean, (variance if variance is not None else 0.0)

    return MomentReport(
        grid_index=grid_index,
        grid_seed=grid_seed,
        params=params,
        replications=r,
        empirical_mean=mean,
        empirical_mean_se=mean_se(counts.astype(float)),
        empirical_variance=variance,
        empirical_variance_se=variance_se(counts.astype(float)),
        empirical_zero_frequency=zero_freq,
        empirical_zero_frequency_se=zero_se,
        analytic_mean=analytic_mean,
        analytic_variance=analytic_variance,
        numeric_mean=numeric_mean,
        numeric_variance=numeric_variance,
        pair_means=pair_means,
        existence_brackets=existence_brackets_oracle(counts, config.bracket_orders),
        moment_source=source,
        quadratic_bound=quadratic_existence_bound(ref_mean, ref_var),
        bonferroni2_bound=bonferroni_bound_order2(ref_mean, ref_var),
        counts=counts,
        pair_class_counts=pair_classes,
    )


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
    # about y on the nodes (i - nr) * s, as the package evaluates H: ux - nr * s
    # can differ by an ulp and flip a node that lies on a hard disk's edge
    h_at_y = spec.kernel(np.hypot(np.arange(-m - nr, m + 1)[:, None] * s, uy))
    h2_at_x = np.pad(h2, ((0, nr), (0, 0)))
    h2_at_y = np.pad(h2, ((nr, 0), (0, 0)))
    s11 = rho**3 * cell * float((h_at_x * h2_at_y**2).sum() + (h_at_y * h2_at_x**2).sum())
    s12 = 2.0 * rho**3 * cell * float((h_at_x * h_at_y * h2_at_x * h2_at_y).sum())
    q = h_at_x * h_at_y
    s22 = rho**2 * cell * float((q * fftconvolve(q, h, mode="same") * cell).sum())
    return AnalyticMoments.from_terms(rho**2 * h3_at_r, s11, s12, s22)


def sigma22_full_square_oracle(spec: ConnectionSpec, s: float, m: int, nr: int) -> float:
    """Reference for ``analytics._sigma22``, which evaluates H on one
    quadrant and mirrors it: the same Parseval sum with H evaluated on the
    whole (2m + 1)**2 square and padded and rolled onto the periodic grid.
    The two agree bit for bit."""
    from scipy import fft

    if nr > 2 * m:
        return 0.0
    axis = np.arange(-m, m + 1) * s
    h = spec.kernel(np.hypot(axis[:, None], axis))
    q = h[nr:] * h[: len(h) - nr]
    mx = min(m, len(q) - 1)
    h = h[m - mx : m + mx + 1]
    shape = (fft.next_fast_len(len(q) + mx, True), fft.next_fast_len(3 * m + 1, True))
    periodic = np.roll(np.pad(h, [(0, n - k) for n, k in zip(shape, h.shape)]), (-mx, -m), axis=(0, 1))
    q_hat = fft.rfft2(q, shape)
    power = fft.rfft2(periodic).real * (q_hat.real**2 + q_hat.imag**2)
    total = 2.0 * power.sum() - power[:, 0].sum() - (power[:, -1].sum() if shape[1] % 2 == 0 else 0.0)
    return s**4 * float(total) / (shape[0] * shape[1])


def gauss_legendre_oracle(n: int):
    """A fresh Golub-Welsch solve of the n-point Gauss-Legendre rule on
    [-1, 1], the reference for the package's table of rules."""
    i = np.arange(1.0, n)
    off = i / np.sqrt(4.0 * i * i - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 * vectors[0] ** 2


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
