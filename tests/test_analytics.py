import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mc_mean, mc_variance_terms
from rcmpaths.analytics import (
    QuadratureSpec,
    _convolve_same,
    mean_khop_numeric,
    mean_khop_rayleigh,
    variance_terms_numeric,
    variance_threehop_rayleigh,
)
from rcmpaths.errors import (
    QuadratureConfigError,
    UnsupportedClosedFormError,
    ValidationError,
)
from rcmpaths.model import ConnectionSpec, ModelParams

RAY1 = ConnectionSpec.rayleigh(beta=1.0)


def ray_params(rho=1.0, beta=1.0, r=1.0, k=3):
    return ModelParams(rho=rho, connection=ConnectionSpec.rayleigh(beta=beta), anchor_distance=r, k=k)


class TestClosedForms:
    def test_reference_point_three_significant_figures(self):
        p = ray_params()
        assert f"{mean_khop_rayleigh(p):.3g}" == "2.36"
        assert f"{variance_threehop_rayleigh(p).variance:.3g}" == "9.95"

    def test_mean_value(self):
        assert mean_khop_rayleigh(ray_params()) == pytest.approx(
            (math.pi**2 / 3) * math.exp(-1 / 3), rel=1e-14
        )

    def test_one_hop_mean_equals_connection_probability(self):
        p = ray_params(rho=3.0, beta=1.0, r=2.0, k=1)
        assert mean_khop_rayleigh(p) == pytest.approx(math.exp(-4.0), rel=1e-14)

    def test_two_hop_zero_separation(self):
        p = ray_params(rho=1.0, beta=1.0, r=0.0, k=2)
        assert mean_khop_rayleigh(p) == pytest.approx(math.pi / 2, rel=1e-14)

    def test_variance_term_breakdown(self):
        am = variance_threehop_rayleigh(ray_params())
        assert am.sigma11_term == pytest.approx(math.pi**3 / 4 * math.exp(-0.5), rel=1e-14)
        assert am.sigma12_term == pytest.approx(math.pi**3 / 6 * math.exp(-0.75), rel=1e-14)
        assert am.sigma22_term == pytest.approx(math.pi**2 / 8 * math.exp(-1.0), rel=1e-14)
        assert am.sigma21_term == am.mean
        # quoted working values
        assert am.sigma11_term == pytest.approx(4.7015, abs=1e-4)
        assert am.sigma12_term == pytest.approx(2.4411, abs=1e-4)
        assert am.sigma22_term == pytest.approx(0.4539, abs=1e-4)
        assert am.mean == pytest.approx(2.3573, abs=1e-4)
        assert am.variance == pytest.approx(9.954, abs=1e-3)

    def test_variance_is_sum_of_terms(self):
        am = variance_threehop_rayleigh(ray_params(rho=2.0, beta=0.5, r=1.5))
        total = am.mean + am.sigma11_term + am.sigma12_term + am.sigma22_term
        assert am.variance == pytest.approx(total, rel=1e-14)

    def test_dispersion_tends_to_one_at_large_separation(self):
        ratios = []
        for r in (2.0, 4.0, 6.0, 10.0):
            am = variance_threehop_rayleigh(ray_params(r=r))
            ratios.append(am.variance / am.mean)
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(1.0, abs=1e-6)

    def test_rho_scaling_law(self):
        for k in (2, 3, 4, 5):
            m1 = mean_khop_rayleigh(ray_params(rho=0.7, k=k))
            m2 = mean_khop_rayleigh(ray_params(rho=1.4, k=k))
            assert m2 / m1 == pytest.approx(2.0 ** (k - 1), rel=1e-12)

    def test_unsupported_parameters_raise(self):
        bad_eta = ModelParams(
            rho=1.0, connection=ConnectionSpec.rayleigh(beta=1.0, eta=3.0), anchor_distance=1.0, k=3
        )
        with pytest.raises(UnsupportedClosedFormError):
            mean_khop_rayleigh(bad_eta)
        with pytest.raises(UnsupportedClosedFormError):
            variance_threehop_rayleigh(bad_eta)
        hd = ModelParams(rho=1.0, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=1.0, k=3)
        with pytest.raises(UnsupportedClosedFormError):
            mean_khop_rayleigh(hd)
        with pytest.raises(UnsupportedClosedFormError):
            variance_threehop_rayleigh(ray_params(k=4))

    @given(
        rho=st.floats(min_value=0.05, max_value=10.0),
        beta=st.floats(min_value=0.05, max_value=5.0),
        r=st.floats(min_value=0.0, max_value=20.0),
    )
    @settings(max_examples=150)
    def test_variance_at_least_mean(self, rho, beta, r):
        am = variance_threehop_rayleigh(ray_params(rho=rho, beta=beta, r=r))
        assert am.variance >= am.mean >= 0.0


class TestGridQuadrature:
    def test_matches_closed_form(self):
        p = ray_params()
        closed = mean_khop_rayleigh(p)
        num = mean_khop_numeric(p)
        assert abs(num - closed) / closed < 1e-6

    def test_two_hop_closed_value(self):
        p = ray_params(k=2)
        assert mean_khop_numeric(p) == pytest.approx(
            (math.pi / 2) * math.exp(-0.5), rel=1e-6
        )
        assert mean_khop_numeric(p) == pytest.approx(0.9527, abs=1e-4)

    def test_one_hop_is_connection_probability(self):
        p = ray_params(k=1, r=1.5)
        assert mean_khop_numeric(p) == RAY1.evaluate(1.5)

    def test_off_grid_separation_interpolates(self):
        # r smaller than half a grid step exercises the interpolated readoff
        p = ray_params(r=0.012, k=2)
        closed = mean_khop_rayleigh(p)
        assert abs(mean_khop_numeric(p) - closed) / closed < 1e-3

    def test_variance_terms_match_closed_forms(self):
        p = ray_params(rho=2.0, beta=0.5, r=2.0)
        closed = variance_threehop_rayleigh(p)
        num = variance_terms_numeric(p)
        for term in ("sigma11_term", "sigma12_term", "sigma22_term", "mean", "variance"):
            c = getattr(closed, term)
            n = getattr(num, term)
            assert abs(n - c) / c < 1e-6, term

    def test_variance_terms_vanish_at_large_separation(self):
        p = ray_params(r=8.0)
        num = variance_terms_numeric(p)
        assert num.sigma11_term < 1e-10
        assert num.sigma12_term < 1e-10
        assert num.sigma22_term < 1e-12

    def test_variance_terms_require_threehop(self):
        with pytest.raises(ValidationError):
            variance_terms_numeric(ray_params(k=2))

    def test_grid_refinement_converges(self):
        p = ray_params(rho=1.0, beta=1.0, r=1.0)
        quad = QuadratureSpec.default_for(p)
        halved = QuadratureSpec(grid_extent=quad.grid_extent, grid_step=quad.grid_step / 2)
        a = mean_khop_numeric(p, quad)
        b = mean_khop_numeric(p, halved)
        assert abs(a - b) / b < 1e-3
        va = variance_terms_numeric(p, quad)
        vb = variance_terms_numeric(p, halved)
        for term in ("sigma11_term", "sigma12_term", "sigma22_term"):
            assert abs(getattr(va, term) - getattr(vb, term)) / getattr(vb, term) < 1e-3


# the shapes the quadrature convolves: the chain's (2m+1)^2 with itself and
# the free-vertex grid q, (2m+nr+1) x (2m+1), with the kernel grid; plus
# arbitrary odd, even, square and rectangular pairs (every side >= 2)
_side = st.integers(2, 40)
_conv_shapes = st.one_of(
    st.integers(1, 20).map(lambda m: ((2 * m + 1,) * 2, (2 * m + 1,) * 2)),
    st.tuples(st.integers(1, 20), st.integers(0, 12)).map(
        lambda t: ((2 * t[0] + t[1] + 1, 2 * t[0] + 1), (2 * t[0] + 1,) * 2)
    ),
    st.tuples(st.tuples(_side, _side), st.tuples(_side, _side)),
)


class TestConvolveSame:
    @given(shapes=_conv_shapes, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_equals_scipy_signal_fftconvolve(self, shapes, seed):
        from scipy.signal import fftconvolve

        rng = np.random.default_rng(seed)
        a, b = (rng.standard_normal(shape) for shape in shapes)
        oracle = fftconvolve(a, b, mode="same")
        out, b_spectrum = _convolve_same(a, b)
        assert np.array_equal(out, oracle)
        assert np.array_equal(_convolve_same(a, b, b_spectrum)[0], oracle)
        self_oracle = fftconvolve(b, b, mode="same")
        self_out, self_spectrum = _convolve_same(b, b)
        assert np.array_equal(self_out, self_oracle)
        assert np.array_equal(_convolve_same(b, b, self_spectrum)[0], self_oracle)

    def test_chain_transforms_the_kernel_once(self, quadrature_calls):
        p = ModelParams(rho=1.0, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=1.0, k=5)
        mean_khop_numeric(p)
        # one transform of h, then one of each chain stage after the first
        assert quadrature_calls == {"_kernel_grid": 1, "rfftn": 4, "irfftn": 4}


class TestHardDisk:
    def test_two_hop_beyond_double_radius_is_zero(self):
        p = ModelParams(
            rho=1.0, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=2.5, k=2
        )
        assert abs(mean_khop_numeric(p)) < 1e-12

    def test_two_hop_lens_area(self):
        # independent closed form: area of the intersection of two unit disks
        r0, r = 1.0, 1.0
        lens = 2 * r0 * r0 * math.acos(r / (2 * r0)) - (r / 2) * math.sqrt(4 * r0 * r0 - r * r)
        p = ModelParams(rho=1.0, connection=ConnectionSpec.hard_disk(r0), anchor_distance=r, k=2)
        quad = QuadratureSpec(grid_extent=3.2, grid_step=0.01)
        assert mean_khop_numeric(p, quad) == pytest.approx(lens, rel=1e-3)

    def test_sigma22_dense_grid_oracle(self):
        # second quadrature at double resolution as the oracle
        p = ModelParams(
            rho=1.0, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=0.5, k=3
        )
        quad = QuadratureSpec(grid_extent=3.2, grid_step=0.005)
        dense = QuadratureSpec(grid_extent=3.2, grid_step=0.0025)
        a = variance_terms_numeric(p, quad).sigma22_term
        b = variance_terms_numeric(p, dense).sigma22_term
        assert abs(a - b) / b < 1e-3


class TestQuadratureSpecValidation:
    def test_step_must_divide_extent(self):
        with pytest.raises(ValidationError):
            QuadratureSpec(grid_extent=1.0, grid_step=0.3)

    def test_default_divisibility(self):
        for k in (2, 3, 5):
            p = ray_params(beta=0.5, k=k)
            quad = QuadratureSpec.default_for(p)
            ratio = quad.grid_extent / quad.grid_step
            assert abs(ratio - round(ratio)) < 1e-6

    def test_coarse_grid_warns_and_raises_in_strict_mode(self):
        p = ray_params()
        coarse = QuadratureSpec(grid_extent=8.0, grid_step=0.5)
        with pytest.warns(UserWarning):
            mean_khop_numeric(p, coarse)
        with pytest.raises(QuadratureConfigError):
            mean_khop_numeric(p, coarse, strict=True)

    def test_extent_must_cover_separation(self):
        p = ray_params(r=9.0)
        quad = QuadratureSpec(grid_extent=8.0, grid_step=0.05)
        with pytest.raises(QuadratureConfigError):
            mean_khop_numeric(p, quad)


class TestMonteCarlo:
    """The Monte Carlo oracles of ``conftest`` against the closed forms."""

    def test_rayleigh_mean(self):
        p = ray_params()
        closed = mean_khop_rayleigh(p)
        assert abs(mc_mean(p, 400_000, 0) - closed) / closed < 0.01

    def test_rayleigh_mean_k4(self):
        p = ray_params(k=4, r=2.0)
        closed = mean_khop_rayleigh(p)
        assert abs(mc_mean(p, 400_000, 1) - closed) / closed < 0.02

    def test_rayleigh_variance_terms(self):
        p = ray_params()
        closed = variance_threehop_rayleigh(p)
        mc = mc_variance_terms(p, 400_000, 0)
        for term in ("sigma11_term", "sigma12_term", "sigma22_term"):
            c = getattr(closed, term)
            assert abs(getattr(mc, term) - c) / c < 0.02, term

    def test_hard_disk_mean_uniform_proposal(self):
        r0, r = 1.0, 1.0
        lens = 2 * r0 * r0 * math.acos(r / (2 * r0)) - (r / 2) * math.sqrt(4 * r0 * r0 - r * r)
        p = ModelParams(rho=1.0, connection=ConnectionSpec.hard_disk(r0), anchor_distance=r, k=2)
        assert mc_mean(p, 400_000, 1) == pytest.approx(lens, rel=0.05)

    def test_deterministic_given_seed(self):
        p = ray_params()
        assert mc_mean(p, 10_000, 7) == mc_mean(p, 10_000, 7)


def test_tabulated_connection_through_quadrature():
    # dense tabulation of the unit-rate kernel reproduces its 2-hop mean
    knots = [(r, math.exp(-r * r)) for r in np.arange(0.05, 5.0, 0.05)]
    spec = ConnectionSpec.tabulated(knots)
    p = ModelParams(rho=1.0, connection=spec, anchor_distance=1.0, k=2)
    closed = (math.pi / 2) * math.exp(-0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        num = mean_khop_numeric(p)
    assert num == pytest.approx(closed, rel=5e-3)
