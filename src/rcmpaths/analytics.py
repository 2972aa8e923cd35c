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
k-1 planar convolutions evaluated on a grid.  H is evaluated once per call,
and the chain transforms the kernel grid once and reuses its spectrum at
every step.  The last convolution is needed at one displacement only, so it
is read off as an inner product of the chain's last power with the shifted
kernel grid, with no transform (a 2-hop mean runs none at all).  The
pair-class integrals read the 2-hop kernel and the 3-hop mean off that same
chain, plus one extra convolution, of the nonzero rows of its operand, on
the chain's spectrum of the kernel.  Each 2-D transform runs as its two 1-D
stages and skips the rows known to be zero (the padding).  The chain's
convolutions equal ``scipy.signal.fftconvolve`` bit for bit.
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
        else:
            # a hard disk's step is r0 / 40, a table's is at most half its
            # smallest knot gap
            step = min(_coarse_step_limit(spec) / 2.0, spec.reach / 40.0)
            extent = k * spec.reach + 2 * step
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
    gaps = [b - a for a, b in zip(d, d[1:])]
    return min(gaps) if gaps else d[-1] / 4.0


def _grid(params: ModelParams, quad: QuadratureSpec | None, strict: bool):
    """``(s, m, t)`` for the grid ``quad`` (by default sized for ``params``),
    once checked: 2m + 1 nodes of step s per axis, and r = t * s.  The step
    puts r on a node, unless r is at most half a step (the read-off then
    interpolates between x-nodes; the chain is flat at that scale), so s
    may be up to 1.5 times ``grid_step``; s is what the coarseness check
    reads."""
    spec, r = params.connection, params.anchor_distance
    quad = quad or QuadratureSpec.default_for(params)
    if quad.grid_extent <= r:
        raise QuadratureConfigError(f"grid_extent {quad.grid_extent} does not cover the anchor distance {r}")
    nodes = round(r / quad.grid_step)
    s = r / nodes if nodes else quad.grid_step
    limit = _coarse_step_limit(spec)
    if s > limit:
        msg = f"grid step {s:.4g} (grid_step {quad.grid_step}) is too coarse for this connection (limit {limit:.4g})"
        if strict:
            raise QuadratureConfigError(msg)
        warnings.warn(msg, stacklevel=3)
    return s, int(math.ceil(quad.grid_extent / s - 1e-9)), r / s


def _kernel_grid(spec: ConnectionSpec, m: int, s: float, extra: int = 0) -> np.ndarray:
    """H at the nodes (i s, j s), i = -m .. m + extra, j = -m .. m.  Its
    first 2m + 1 rows are the kernel grid h; reversed, its rows are H about
    (extra * s, 0), exactly, as each coordinate is an integer times s."""
    x = np.arange(-m, m + extra + 1) * s
    return spec.kernel(np.hypot(x[:, None], x[: 2 * m + 1]))


def _nonzero_rows(a: np.ndarray) -> slice:
    """The rows of ``a`` from its first to its last row holding a nonzero."""
    rows = np.flatnonzero(a.any(axis=1))
    return slice(int(rows[0]), int(rows[-1]) + 1) if len(rows) else slice(0, 0)


def _convolve_same(a: np.ndarray, b: np.ndarray, spectrum=None):
    """``scipy.signal.fftconvolve(a, b, mode="same")`` bit for bit, with
    ``scipy.fft`` (a third of ``scipy.signal``'s import time).

    The 2-D transforms run as the two 1-D stages pocketfft runs inside
    ``rfftn`` and ``irfftn``: the row stage (``rfft`` along axis 1), on an
    operand's rows from its first to its last nonzero one only, then the
    column stage (``fft`` along axis 0); the inverse runs them in reverse
    and scales once, as pocketfft does at its last stage.  Each row is
    transformed on its own, so skipping zero rows changes no bit.

    Returns the result and ``b``'s spectrum, which a later call with the
    same ``b`` and an ``a`` with as many columns may pass back.  Its padded
    row count then serves: for an ``a`` of ``b``'s shape it is
    ``fftconvolve``'s, and for any ``a`` with ``len(a) + len(b) // 2`` rows
    at most, no kept row wraps around.  ``a is b`` transforms once.
    """
    from scipy import fft

    full = [p + q - 1 for p, q in zip(a.shape, b.shape)]
    n1 = fft.next_fast_len(full[1], True)
    n0 = fft.next_fast_len(full[0], True) if spectrum is None else len(spectrum)

    def transform(x):
        # the row stage writes straight into the column stage's zero padding
        band = _nonzero_rows(x)
        out = np.zeros((n0, n1 // 2 + 1), dtype=complex)
        out[band] = fft.rfft(x[band], n1, axis=1)
        return fft.fft(out, axis=0, overwrite_x=True)

    if spectrum is None:
        spectrum = transform(b)
    if a is b:
        product = spectrum * spectrum
    else:
        product = transform(a)
        product *= spectrum
    start0, start1 = ((n - p) // 2 for n, p in zip(full, a.shape))
    columns = fft.ifft(product, axis=0, norm="forward", overwrite_x=True)[start0 : start0 + a.shape[0]]
    out = fft.irfft(columns, n1, axis=1, norm="forward")[:, start1 : start1 + a.shape[1]]
    return out * float(np.longdouble(1) / np.longdouble(n0 * n1)), spectrum


def _chain_grid(h: np.ndarray, k: int, cell: float):
    """h^{*(k-1)}, the (k-1)-fold convolution power of the kernel grid h
    (each convolution scaled by the cell area), and the spectrum of h (None
    at k = 2, which convolves nothing), all from one transform of h."""
    power, spectrum = h, None
    for _ in range(k - 2):
        power, spectrum = _convolve_same(power, h, spectrum)
        power *= cell
    return power, spectrum


def _read_off(power: np.ndarray, h: np.ndarray, t: float, cell: float) -> float:
    """(power * h)(r, 0), the last convolution of the chain at the anchor
    displacement r = t steps, as the inner product cell * sum_u power(u)
    h(u - r e1): at a node i, h shifted by i rows (h is its own mirror
    image); between nodes, linear in the two nearest."""

    def at(i):
        return float(np.einsum("ij,ij->", power[i:], h[: len(h) - i]))

    i0 = math.floor(t)
    frac = t - i0
    return cell * (at(i0) * (1.0 - frac) + at(i0 + 1) * frac if frac else at(i0))


def mean_khop_numeric(
    params: ModelParams, quad: QuadratureSpec | None = None, strict: bool = False
) -> float:
    """Expected k-hop path count for any connection function.

    Samples the kernel on a square grid, chains k-2 FFT convolutions, and
    reads the last of the k-1 off at the displacement (r, 0) as an inner
    product.
    """
    k = int(params.k)
    if k == 1:
        return params.connection.evaluate(params.anchor_distance)
    s, m, t = _grid(params, quad, strict)
    h = _kernel_grid(params.connection, m, s)
    return params.rho ** (k - 1) * _read_off(_chain_grid(h, k, s * s)[0], h, t, s * s)


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
    if params.k != 3:
        raise ValidationError(f"pair-class variance is specific to k = 3, got k = {params.k}")
    rho = params.rho
    s, m, t = _grid(params, quad, strict)
    nr = int(round(t))
    cell = s * s
    # H(U - x) over the free vertex U, on [-extent, r+extent] x [-extent,
    # extent]: its first 2m + 1 rows are h, and its mirror is H(U - y)
    h_at_x = _kernel_grid(params.connection, m, s, nr)
    h_at_y = h_at_x[::-1]
    h = h_at_x[: 2 * m + 1]
    h2, spectrum = _chain_grid(h, 3, cell)
    mean = rho**2 * _read_off(h2, h, t, cell)

    # only q's nonzero rows (21 of 305 for a hard disk at separation 1.5) are
    # convolved, on the chain's spectrum of h: its padded row count, at
    # least 4m + 1, holds them with no wrap-around, as nr <= m
    q = h_at_x * h_at_y
    band = q[_nonzero_rows(q)]
    conv_q = _convolve_same(band, h, spectrum)[0]
    del spectrum
    conv_q *= cell
    s22 = rho**2 * cell * float(np.einsum("ij,ij->", band, conv_q))
    # the chain's 2-hop kernel at U-x and U-y, shifted by nr rows (values
    # beyond the centered grid are tail-negligible zeros)
    h2_at_x = np.pad(h2, ((0, nr), (0, 0)))
    h2_at_y = np.pad(h2, ((nr, 0), (0, 0)))
    s11 = rho**3 * cell * float((h_at_x * h2_at_y**2).sum() + (h_at_y * h2_at_x**2).sum())
    s12 = 2.0 * rho**3 * cell * float((h_at_x * h_at_y * h2_at_x * h2_at_y).sum())
    return AnalyticMoments.from_terms(mean, s11, s12, s22)
