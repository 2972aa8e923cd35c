"""Moment analytics: closed forms for the Rayleigh case and general-purpose
numerical evaluation of the same integrals for any connection function.

Closed forms (Rayleigh kernel exp(-beta * r**2), two dimensions):

    mean_k      = (1/k) * (rho*pi/beta)**(k-1) * exp(-beta*r**2 / k)
    var_3       = mean_3
                  + (pi**3 rho**3 / beta**3) * (exp(-beta r**2 / 2) / 4
                                                + exp(-3 beta r**2 / 4) / 6)
                  + (pi**2 rho**2 / (8 beta**2)) * exp(-beta r**2)

The three added variance contributions are the expectations of the ordered
path-pair classes of :class:`rcmpaths.paths.PairStructureCounts`: sigma11
(one shared intermediate, same position), sigma12 (one shared intermediate,
opposite positions), and sigma22 (both intermediates shared, outer edges
distinct); the self-pair class sigma21 contributes the mean itself.

The numerical route uses that every connection function is radial: a planar
convolution of radial functions is the product of their order-0 Hankel
transforms, F(q) = 2 pi int H(s) J0(q s) s ds.  So, with h2 = H * H the
2-hop kernel (read back from F**2 at the nodes),

    mean_k  = rho**(k-1) / (2 pi) int F(q)**k J0(q r) q dq,
    sigma11 = 2 rho**3 (H * h2**2)(r),  sigma12 = 2 rho**3 ((H h2) * (H h2))(r),

each from one J0 matrix on Gauss-Legendre panels derived from the kernel.
sigma22's union graph (x-U, U-y, x-V, V-y, U-V) is not series-parallel, so
it stays on a grid sized to the support of H(. - x) H(. - y), as one
Parseval sum of two forward FFTs.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureConfigError, UnsupportedClosedFormError, ValidationError
from .model import HARD_DISK, RAYLEIGH, ConnectionSpec, ModelParams

@dataclass(frozen=True)
class AnalyticMoments:
    """Mean and, for three hops, variance with its per-class breakdown."""

    mean: float
    variance: float | None = None
    sigma11_term: float | None = None
    sigma12_term: float | None = None
    sigma21_term: float | None = None
    sigma22_term: float | None = None

    @classmethod
    def from_terms(cls, mean: float, s11: float, s12: float, s22: float) -> "AnalyticMoments":
        """Three-hop moments from the mean and the sigma11, sigma12 and sigma22
        pair-class terms; the self-pairs (sigma21) contribute the mean."""
        return cls(
            mean=mean,
            variance=mean + s11 + s12 + s22,
            sigma11_term=s11,
            sigma12_term=s12,
            sigma21_term=mean,
            sigma22_term=s22,
        )


@dataclass(frozen=True)
class QuadratureSpec:
    """The square grid of the sigma22 term: it spans ``grid_extent`` about
    each anchor in steps of ``grid_step``, and the term sums over its nodes
    within ``grid_extent`` of both anchors.  The extent must cover the
    connection's reach; the radial route of the other integrals takes no
    grid."""

    grid_extent: float = 10.0
    grid_step: float = 0.05

    def __post_init__(self) -> None:
        if not (self.grid_extent > 0 and self.grid_step > 0):
            raise ValidationError("grid_extent and grid_step must be positive")
        ratio = self.grid_extent / self.grid_step
        if abs(ratio - round(ratio)) > 1e-6:
            raise ValidationError("grid_step must divide grid_extent")

    @classmethod
    def default_for(cls, params: ModelParams) -> "QuadratureSpec":
        """Grid sized to the kernel's support: the extent is the reach,
        rounded up to a whole number of steps.  A Rayleigh step is reach / 100
        (1 / (20 sqrt(beta)) for eta = 2), a hard disk's r0 / 40, and a
        table's at most half its smallest knot gap."""
        spec = params.connection
        if spec.kind == RAYLEIGH:
            step = spec.reach / 100.0
        else:
            step = min(_coarse_step_limit(spec) / 2.0, spec.reach / 40.0)
        return cls(grid_extent=math.ceil(spec.reach / step - 1e-9) * step, grid_step=step)


def mean_khop_rayleigh(params: ModelParams) -> float:
    """Closed-form expected k-hop path count (Rayleigh, eta = 2); at k = 1
    the anchors' edge probability, 0 where they coincide."""
    spec = params.connection
    if spec.kind != RAYLEIGH or spec.eta != 2.0:
        raise UnsupportedClosedFormError(
            "closed form requires a Rayleigh connection with eta = 2; use mean_khop_numeric"
        )
    k = int(params.k)
    r = params.anchor_distance
    if k == 1:
        return spec.evaluate(r)
    return (1.0 / k) * (params.rho * math.pi / spec.beta) ** (k - 1) * math.exp(
        -spec.beta * r * r / k
    )


def variance_threehop_rayleigh(params: ModelParams) -> AnalyticMoments:
    """Closed-form mean and variance of the 3-hop count (Rayleigh, eta = 2)."""
    spec = params.connection
    if spec.kind != RAYLEIGH or spec.eta != 2.0:
        raise UnsupportedClosedFormError(
            "closed form requires a Rayleigh connection with eta = 2; use variance_terms_numeric"
        )
    if params.k != 3:
        raise UnsupportedClosedFormError(f"variance closed form is specific to k = 3, got k = {params.k}")
    beta = spec.beta
    rho = params.rho
    rsq = params.anchor_distance**2
    mean = mean_khop_rayleigh(params)
    cube = (math.pi * rho / beta) ** 3
    s11 = cube / 4.0 * math.exp(-beta * rsq / 2.0)
    s12 = cube / 6.0 * math.exp(-3.0 * beta * rsq / 4.0)
    s22 = (math.pi * rho / beta) ** 2 / 8.0 * math.exp(-beta * rsq)
    return AnalyticMoments.from_terms(mean, s11, s12, s22)


# ---------------------------------------------------------------------------
# radial quadrature
# ---------------------------------------------------------------------------

# A Gauss-Legendre panel spans at most _PANEL_PHASE radians of J0 and takes
# phase / 3 + 12 nodes (enough for cos(phase * x) over [0, 1] to 1e-14); the
# q-range sheds a tail of _TAIL, and a call's J0 matrix holds at most
# _RADIAL_CAP entries (8 MiB), shortening the q-range if need be; a tail
# then above _CAPPED_TAIL warns.
_PANEL_PHASE = 120.0
_TAIL = 1e-9
_RADIAL_CAP = 2**20
_CAPPED_TAIL = 1e-6


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1] (Golub-Welsch), at a
    fifth of the cost of numpy's ``leggauss``; a per-process table keyed by
    n, whose read-only arrays every caller shares."""
    i = np.arange(1.0, n)
    off = i / np.sqrt(4.0 * i * i - 1.0)
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = 2.0 * vectors[0] ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _panels(edges, frequency: float, refine: int):
    """Gauss-Legendre nodes and weights over consecutive ``edges``, each
    interval cut into equal panels of at most _PANEL_PHASE radians of
    cos(frequency * x); ``refine`` multiplies each panel's node count."""
    nodes, weights = [], []
    for a, b in zip(edges, edges[1:]):
        parts = max(1, math.ceil((b - a) * frequency / _PANEL_PHASE))
        x, w = _gauss_legendre(refine * (math.ceil((b - a) * frequency / parts / 3.0) + 12))
        width = (b - a) / parts
        nodes.append((a + width * np.arange(parts)[:, None] + width / 2.0 * (x + 1.0)).ravel())
        weights.append(np.tile(width / 2.0 * w, parts))
    return np.concatenate(nodes), np.concatenate(weights)


def _radial_rule(spec: ConnectionSpec, s_max: float, bandwidth: float, strict: bool, refine: int = 1):
    """``(s, ws, q, wq)``: Gauss-Legendre nodes and weights on [0, s_max],
    split at the kernel's knots (a table's distances, the reach, and a, a/4,
    a/16, a/64 toward a Rayleigh cusp at 0, a = beta**(-1/eta)), and on
    [0, q_max], resolving J0(q s) for s up to ``bandwidth``.  q_max = T / a
    (T / reach when compact) follows from F's decay: q**-1.5 past a jump of
    H, q**-2.5 past a kink, q**-(2 + eta) from a cusp, faster than any power
    for eta = 2; F**2 and its like shed a tail of T**(2 - 2 decay), which T
    holds to _TAIL within [16, 128].  Above _RADIAL_CAP nodes the q-range
    shortens, and if its tail then exceeds _CAPPED_TAIL the rule warns, or
    raises QuadratureConfigError when ``strict``.  ``refine`` multiplies
    q_max and each panel's node count."""
    if spec.kind == RAYLEIGH:
        scale = spec.beta ** (-1.0 / spec.eta)
        decay = math.inf if spec.eta == 2.0 else 2.0 + spec.eta
        knots = [] if spec.eta == 2.0 else [scale / 4.0**j for j in (3, 2, 1, 0)]
    else:
        scale = spec.reach
        decay = 1.5 if spec.kind == HARD_DISK or spec.table[-1][1] > 0.0 else 2.5
        knots = [] if spec.kind == HARD_DISK else [d for d, _ in spec.table]
    edges = sorted({0.0, s_max, *(d for d in (*knots, spec.reach) if d < s_max)})
    q_max = refine * min(128.0, max(16.0, _TAIL ** (-1.0 / (2.0 * decay - 2.0)))) / scale
    needed = None
    while True:
        s, ws = _panels(edges, q_max, refine)
        q, wq = _panels([0.0, q_max], bandwidth, refine)
        if len(s) * len(q) <= _RADIAL_CAP:
            break
        needed = needed or len(s) * len(q)
        q_max *= 0.9 * math.sqrt(_RADIAL_CAP / (len(s) * len(q)))
    tail = (q_max * scale / refine) ** (2.0 - 2.0 * decay)
    if needed and tail > _CAPPED_TAIL:
        msg = f"the radial quadrature needs {needed} J0 nodes for this connection, above its cap {_RADIAL_CAP}"
        msg += f"; within the cap its q-range sheds a tail of {tail:.1g}"
        if strict:
            raise QuadratureConfigError(msg)
        warnings.warn(msg, stacklevel=4)
    return s, ws, q, wq


def _radial_moments(params: ModelParams, strict: bool, refine: int = 1):
    """``(mean, sigma11, sigma12)`` by the radial route; the sigma terms are
    None unless k = 3.  A k = 3 rule reads h2**2 out to where it dies (2
    reach for a compact kernel, reach * 2**(1 - 2/eta) for Rayleigh), so its
    mean is the same number whichever function asks for it."""
    from scipy.special import j0

    spec, k, r, rho = params.connection, int(params.k), params.anchor_distance, params.rho
    # Rayleigh runs on to 1.2 reaches, where H < e**-36 for eta >= 2
    reach = spec.reach if spec.kind != RAYLEIGH else 1.2 * spec.reach
    if k == 3:
        s_max = reach * (max(1.0, 2.0 ** (1.0 - 2.0 / spec.eta)) if spec.kind == RAYLEIGH else 2.0)
        bandwidth = reach + s_max + max(r, reach)
    else:
        s_max, bandwidth = reach, k * reach + r
    s, ws, q, wq = _radial_rule(spec, s_max, bandwidth, strict, refine)
    bessel = j0(np.outer(s, q))
    forward = 2.0 * math.pi * ws * s
    back = wq * q * j0(q * r) / (2.0 * math.pi)
    h = spec.kernel(s)
    f = (forward * h) @ bessel
    # a compact kernel's n-fold convolution vanishes beyond n reaches, where
    # the truncated q-integral would leave noise
    support = math.inf if spec.kind == RAYLEIGH else reach
    mean = 0.0 if r >= k * support else rho ** (k - 1) * float(back @ f**k)
    if k != 3:
        return mean, None, None
    h2 = bessel @ (wq * q * f * f) / (2.0 * math.pi)
    s11 = 0.0 if r >= 3 * support else 2.0 * rho**3 * float(back @ (f * ((forward * h2 * h2) @ bessel)))
    g = (forward * h * h2) @ bessel
    return mean, s11, 0.0 if r >= 2 * support else 2.0 * rho**3 * float(back @ (g * g))


def _coarse_step_limit(spec: ConnectionSpec) -> float:
    if spec.kind == RAYLEIGH:
        return 0.25 / math.sqrt(spec.beta)
    if spec.kind == HARD_DISK:
        return spec.r0 / 4.0
    d = [k[0] for k in spec.table]
    gaps = [b - a for a, b in zip(d, d[1:])]
    return min(gaps) if gaps else d[-1] / 4.0


def _grid(params: ModelParams, quad: QuadratureSpec | None, strict: bool):
    """``(s, m, nr)`` for the grid ``quad`` (by default sized for
    ``params``), once checked: m nodes of step s about each anchor, nr
    between them.  s puts r on a node unless r is at most half a step (the
    anchors then share one), so s may be up to 1.5 times ``grid_step``."""
    spec, r = params.connection, params.anchor_distance
    quad = quad or QuadratureSpec.default_for(params)
    if quad.grid_extent < spec.reach * (1.0 - 1e-9):
        raise QuadratureConfigError(f"grid_extent {quad.grid_extent} does not cover the reach {spec.reach:.6g}")
    nodes = round(r / quad.grid_step)
    s = r / nodes if nodes else quad.grid_step
    limit = _coarse_step_limit(spec)
    if s > limit:
        msg = f"grid step {s:.4g} (grid_step {quad.grid_step}) is too coarse for this connection (limit {limit:.4g})"
        if strict:
            raise QuadratureConfigError(msg)
        warnings.warn(msg, stacklevel=3)
    return s, int(math.ceil(quad.grid_extent / s - 1e-9)), nodes


def _sigma22(spec: ConnectionSpec, s: float, m: int, nr: int) -> float:
    """sigma22 / rho**2: cell**2 sum_{U,V} q(U) q(V) H(U - V) over the nodes
    within m of both anchors, q = H(. - x) H(. - y), from H on the square of
    m nodes about an anchor.  It is one Parseval sum, cell**2 sum_xi Hhat(xi)
    |Qhat(xi)|**2 / N, on a periodic grid that holds q's span plus H's on
    each axis, so no difference U - V wraps onto H's square; H is centred on
    the periodic origin, so Hhat is real.  H is evaluated on the quadrant
    i, j >= 0 and mirrored: (-i) * s is -(i * s) exactly, and hypot ignores
    signs."""
    from scipy import fft

    if nr > 2 * m:
        return 0.0
    axis = np.arange(m + 1) * s
    quadrant = spec.kernel(np.hypot(axis[:, None], axis))
    half = np.concatenate([quadrant[:, :0:-1], quadrant], axis=1)
    h = np.concatenate([half[:0:-1], half])
    q = h[nr:] * h[: len(h) - nr]
    # differences U - V span len(q) - 1 rows, so H's rows beyond never meet
    mx = min(m, len(q) - 1)
    shape = (fft.next_fast_len(len(q) + mx, True), fft.next_fast_len(3 * m + 1, True))
    # H's rows -mx..mx and columns -m..m, each at its offset modulo the periodic shape
    periodic = np.zeros(shape)
    periodic[: mx + 1, : m + 1] = quadrant[: mx + 1]
    periodic[: mx + 1, shape[1] - m :] = quadrant[: mx + 1, :0:-1]
    periodic[shape[0] - mx :] = periodic[mx:0:-1]
    q_hat = fft.rfft2(q, shape)
    power = fft.rfft2(periodic).real * (q_hat.real**2 + q_hat.imag**2)
    # rfft2 keeps half the spectrum: count each column twice but the first and an even N1's last
    total = 2.0 * power.sum() - power[:, 0].sum() - (power[:, -1].sum() if shape[1] % 2 == 0 else 0.0)
    return s**4 * float(total) / (shape[0] * shape[1])


def mean_khop_numeric(params: ModelParams, strict: bool = False) -> float:
    """Expected k-hop path count for any connection function, by the radial
    route; ``strict`` refuses a kernel its rule cannot resolve in its cap."""
    if params.k == 1:
        return params.connection.evaluate(params.anchor_distance)
    return _radial_moments(params, strict)[0]


def variance_terms_numeric(
    params: ModelParams, quad: QuadratureSpec | None = None, strict: bool = False
) -> AnalyticMoments:
    """Numerically evaluate the 3-hop variance and its pair-class terms: the
    mean, sigma11 and sigma12 by the radial route (the opposite-position
    class has two orientations, so its base integral is doubled), and
    sigma22 on the grid ``quad``, by default sized to the kernel's support."""
    if params.k != 3:
        raise ValidationError(f"pair-class variance is specific to k = 3, got k = {params.k}")
    s, m, nr = _grid(params, quad, strict)
    mean, s11, s12 = _radial_moments(params, strict)
    return AnalyticMoments.from_terms(mean, s11, s12, params.rho**2 * _sigma22(params.connection, s, m, nr))
