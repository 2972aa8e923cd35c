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

The numerical route exploits that the k-hop mean integrand is a chain of
radial displacement kernels, so the 2(k-1)-dimensional integral collapses to
k-1 planar convolutions evaluated on a grid.  The chain transforms the kernel
grid once and reuses its spectrum at every step.  The pair-class integrals
read the 2-hop kernel and the 3-hop mean off that same chain, plus one extra
convolution.
"""
from __future__ import annotations

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
    """The square grid the moment integrals are evaluated on: it spans
    ``grid_extent`` on each side of the origin in steps of ``grid_step``."""

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
        """Grid sized from the per-hop kernel scale and the hop count.

        Rayleigh defaults give >10 grid points per kernel standard deviation
        and tail truncation below 1e-10: extent 1.2*reach*sqrt(k) and step
        reach/100, i.e. 6*sqrt(k)/sqrt(beta) and 1/(20*sqrt(beta)) for eta=2.
        """
        spec = params.connection
        k = max(int(params.k), 3)
        if spec.kind == RAYLEIGH:
            step = spec.reach / 100.0
            extent = 1.2 * spec.reach * math.sqrt(k)
        elif spec.kind == HARD_DISK:
            step = spec.r0 / 40.0
            extent = k * spec.r0 + 2 * step
        else:
            d = [knot[0] for knot in spec.table]
            gaps = [b - a for a, b in zip(d, d[1:]) if b > a]
            step = min(min(gaps) / 2.0 if gaps else d[-1] / 40.0, d[-1] / 40.0)
            extent = k * d[-1] + 2 * step
        extent = math.ceil(extent / step) * step
        return cls(grid_extent=extent, grid_step=step)


def mean_khop_rayleigh(params: ModelParams) -> float:
    """Closed-form expected k-hop path count (Rayleigh, eta = 2)."""
    spec = params.connection
    if spec.kind != RAYLEIGH or spec.eta != 2.0:
        raise UnsupportedClosedFormError(
            "closed form requires a Rayleigh connection with eta = 2; use mean_khop_numeric"
        )
    k = int(params.k)
    r = params.anchor_distance
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
# grid-convolution quadrature
# ---------------------------------------------------------------------------


def _coarse_step_limit(spec: ConnectionSpec) -> float:
    if spec.kind == RAYLEIGH:
        return 0.25 / math.sqrt(spec.beta)
    if spec.kind == HARD_DISK:
        return spec.r0 / 4.0
    d = [k[0] for k in spec.table]
    gaps = [b - a for a, b in zip(d, d[1:]) if b > a]
    return min(gaps) if gaps else d[-1] / 4.0


def _check_grid(spec: ConnectionSpec, quad: QuadratureSpec, r: float, strict: bool) -> None:
    if quad.grid_step > _coarse_step_limit(spec):
        msg = (
            f"grid_step {quad.grid_step} is too coarse for this connection "
            f"(limit {_coarse_step_limit(spec):.4g})"
        )
        if strict:
            raise QuadratureConfigError(msg)
        warnings.warn(msg, stacklevel=3)
    if quad.grid_extent <= r:
        raise QuadratureConfigError(
            f"grid_extent {quad.grid_extent} does not cover the anchor distance {r}"
        )


def _kernel_grid(spec: ConnectionSpec, m: int, s: float) -> np.ndarray:
    c = np.arange(-m, m + 1) * s
    xx, yy = np.meshgrid(c, c, indexing="ij")
    return spec.kernel(np.hypot(xx, yy))


def _read_at(grid: np.ndarray, m: int, s: float, r: float) -> float:
    """Value at displacement (r, 0), linearly interpolated between x-nodes."""
    t = r / s
    i0 = int(math.floor(t))
    frac = t - i0
    v0 = grid[m + i0, m]
    if frac == 0.0:
        return float(v0)
    v1 = grid[m + i0 + 1, m]
    return float(v0 * (1.0 - frac) + v1 * frac)


def _convolve_same(a: np.ndarray, b: np.ndarray, b_spectrum: np.ndarray | None = None):
    """``scipy.signal.fftconvolve(a, b, mode="same")`` step for step, and so
    bit for bit, with ``scipy.fft`` (a third of ``scipy.signal``'s import
    time).  Returns the result and the spectrum of ``b``, which a later call
    with an ``a`` of the same shape may pass back; ``a is b`` transforms once.
    """
    from scipy import fft

    full = [p + q - 1 for p, q in zip(a.shape, b.shape)]
    fshape = [fft.next_fast_len(n, True) for n in full]
    if b_spectrum is None:
        b_spectrum = fft.rfftn(b, fshape)
    a_spectrum = b_spectrum if a is b else fft.rfftn(a, fshape)
    out = fft.irfftn(a_spectrum * b_spectrum, fshape)
    start = [(n - p) // 2 for n, p in zip(full, a.shape)]
    return out[tuple(slice(i, i + p) for i, p in zip(start, a.shape))], b_spectrum


def _chain_grid(spec: ConnectionSpec, k: int, r: float, quad: QuadratureSpec):
    """The kernel grid h and its chain h, h*h, ..., h^{*k} (each convolution
    scaled by the cell area), all from one transform of h.  The step puts the
    anchor displacement on a grid node, unless r is below half a step (the
    readoff then interpolates; the chain is flat at that scale)."""
    s = quad.grid_step if r < quad.grid_step / 2.0 else r / round(r / quad.grid_step)
    m = int(math.ceil(quad.grid_extent / s - 1e-9))
    h = _kernel_grid(spec, m, s)
    chain, h_spectrum = [h], None
    for _ in range(k - 1):
        acc, h_spectrum = _convolve_same(chain[-1], h, h_spectrum)
        chain.append(acc * (s * s))
    return chain, m, s


def mean_khop_numeric(
    params: ModelParams, quad: QuadratureSpec | None = None, strict: bool = False
) -> float:
    """Expected k-hop path count for any connection function.

    Samples the kernel on a square grid, chains k-1 FFT convolutions, and
    reads off the displacement (r, 0).
    """
    spec = params.connection
    r = params.anchor_distance
    k = int(params.k)
    if k == 1:
        return spec.evaluate(r)
    if quad is None:
        quad = QuadratureSpec.default_for(params)
    _check_grid(spec, quad, r, strict)
    chain, m, s = _chain_grid(spec, k, r, quad)
    return params.rho ** (k - 1) * _read_at(chain[-1], m, s, r)


def variance_terms_numeric(
    params: ModelParams, quad: QuadratureSpec | None = None, strict: bool = False
) -> AnalyticMoments:
    """Numerically evaluate the 3-hop variance and its pair-class terms.

    The one-shared-vertex terms integrate a single free vertex U against the
    2-hop kernel; the opposite-position class has two orientations (shared
    vertex first in one path, second in the other), so its base integral is
    doubled.  The both-shared class is a double integral handled with one
    extra convolution.
    """
    spec = params.connection
    if params.k != 3:
        raise ValidationError(f"pair-class variance is specific to k = 3, got k = {params.k}")
    r = params.anchor_distance
    rho = params.rho
    if quad is None:
        quad = QuadratureSpec.default_for(params)
    _check_grid(spec, quad, r, strict)
    (hc, h2c, h3c), m, s = _chain_grid(spec, 3, r, quad)
    nr = int(round(r / s))
    cell = s * s

    # grid over the free vertex U, covering [-extent, r+extent] x [-extent, extent]
    cx = np.arange(-m, m + nr + 1) * s
    cy = np.arange(-m, m + 1) * s
    ux, uy = np.meshgrid(cx, cy, indexing="ij")
    h_at_x = spec.kernel(np.hypot(ux, uy))
    h_at_y = spec.kernel(np.hypot(ux - nr * s, uy))

    # the chain's 2-hop kernel at U-x and U-y, shifted by nr rows (values
    # beyond the centered grid are tail-negligible zeros)
    h2_at_x = np.pad(h2c, ((0, nr), (0, 0)))
    h2_at_y = np.pad(h2c, ((nr, 0), (0, 0)))

    s11 = rho**3 * cell * float((h_at_x * h2_at_y**2).sum() + (h_at_y * h2_at_x**2).sum())
    s12 = 2.0 * rho**3 * cell * float((h_at_x * h_at_y * h2_at_x * h2_at_y).sum())
    q = h_at_x * h_at_y
    conv_q = _convolve_same(q, hc)[0] * cell
    s22 = rho**2 * cell * float((q * conv_q).sum())

    mean = rho**2 * _read_at(h3c, m, s, r)
    return AnalyticMoments.from_terms(mean, s11, s12, s22)
