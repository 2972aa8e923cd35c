import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    gauss_legendre_oracle,
    mc_mean,
    mc_variance_terms,
    quadrature_mean_oracle,
    quadrature_variance_oracle,
    sigma22_full_square_oracle,
)
from rcmpaths.analytics import (
    QuadratureSpec,
    _gauss_legendre,
    _radial_moments,
    _sigma22,
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
from rcmpaths.experiments import run_replications
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

    @pytest.mark.parametrize("r", [0.0, 0.3, 2.0])
    def test_one_hop_mean_is_the_swept_edge_probability(self, r):
        # at r = 0 the anchors coincide, and the graph rule gives them no
        # edge: the sweep counts none, so the mean is 0 and not H's limit 1
        p = ray_params(rho=1.0, beta=1.0, r=r, k=1)
        assert mean_khop_rayleigh(p) == mean_khop_numeric(p) == RAY1.evaluate(r)
        if r == 0.0:
            counts, _ = run_replications(p, 3, 50)
            assert mean_khop_rayleigh(p) == 0.0 and not counts.any()

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
        # only sigma22 runs on the grid; the radial terms do not read it
        p = ray_params(rho=1.0, beta=1.0, r=1.0)
        quad = QuadratureSpec.default_for(p)
        halved = QuadratureSpec(grid_extent=quad.grid_extent, grid_step=quad.grid_step / 2)
        va = variance_terms_numeric(p, quad)
        vb = variance_terms_numeric(p, halved)
        assert abs(va.sigma22_term - vb.sigma22_term) / vb.sigma22_term < 1e-3
        for term in ("mean", "sigma11_term", "sigma12_term"):
            assert getattr(va, term) == getattr(vb, term)


def _lens(r0, r):
    """Area of the intersection of two disks of radius r0 whose centres are r
    apart."""
    return 2 * r0 * r0 * math.acos(r / (2 * r0)) - (r / 2) * math.sqrt(4 * r0 * r0 - r * r)


TABLE = ConnectionSpec.tabulated([(0.0, 0.9), (0.5, 0.7), (1.0, 0.35), (1.5, 0.0)])
_RADIAL_TERMS = ("mean", "sigma11_term", "sigma12_term")


class TestRadialQuadrature:
    def test_rayleigh_means_match_closed_forms(self):
        for k in (2, 3, 4, 5, 6):
            for beta in (0.5, 1.0):
                for r in (0.0, 0.5, 1.0, 2.0, 3.0):
                    for rho in (0.5, 2.0):
                        p = ray_params(rho=rho, beta=beta, r=r, k=k)
                        closed = mean_khop_rayleigh(p)
                        assert abs(mean_khop_numeric(p) - closed) / closed < 1e-9, (k, beta, r, rho)

    def test_rayleigh_terms_match_closed_forms(self):
        for beta in (0.5, 1.0):
            for r in (0.0, 0.5, 1.0, 2.0, 3.0):
                for rho in (0.5, 2.0):
                    p = ray_params(rho=rho, beta=beta, r=r)
                    closed = variance_threehop_rayleigh(p)
                    num = variance_terms_numeric(p)
                    for term in ("mean", "sigma11_term", "sigma12_term", "sigma22_term", "variance"):
                        c = getattr(closed, term)
                        assert abs(getattr(num, term) - c) / c < 1e-9, (beta, r, rho, term)

    @pytest.mark.parametrize(
        "spec", [TABLE, ConnectionSpec.rayleigh(beta=0.7, eta=3.0), ConnectionSpec.rayleigh(beta=1.0, eta=3.0)]
    )
    def test_terms_match_a_doubled_node_run(self, spec):
        # doubling q_max and every panel's nodes moves the k = 3 terms by
        # less than 1e-7 (sigma12 of a kinked table converges slowest near
        # r = 0, where its q-tail has no oscillation to cancel)
        for r in (0.5, 1.0, 1.5):
            p = ModelParams(rho=1.3, connection=spec, anchor_distance=r, k=3)
            np.testing.assert_allclose(_radial_moments(p, False), _radial_moments(p, False, 2), rtol=1e-7, atol=0)

    @pytest.mark.parametrize(
        "spec, quad",
        [
            (ConnectionSpec.rayleigh(beta=0.7, eta=3.0), None),
            (ConnectionSpec.rayleigh(beta=1.0, eta=3.0), None),
            # at the default step r0 / 40 the grid's lattice points on the
            # disk's edge bias it by up to 3e-3; at step 0.01, by 4e-4
            (ConnectionSpec.hard_disk(1.0), QuadratureSpec(grid_extent=1.0, grid_step=0.01)),
        ],
        ids=["eta3-beta0.7", "eta3-beta1", "hard-disk"],
    )
    def test_terms_match_the_grid_oracle(self, spec, quad):
        # an independent check of the terms with no closed form, and of the
        # 2- and 4-hop means
        for r in (0.5, 1.0, 1.5):
            p = ModelParams(rho=1.0, connection=spec, anchor_distance=r, k=3)
            oracle = quadrature_variance_oracle(p, quad)
            num = variance_terms_numeric(p)
            for term in _RADIAL_TERMS:
                assert abs(getattr(num, term) / getattr(oracle, term) - 1) < 2e-3, (r, term)
            for k in (2, 4):
                p = ModelParams(rho=1.0, connection=spec, anchor_distance=r, k=k)
                assert abs(mean_khop_numeric(p) / quadrature_mean_oracle(p, quad) - 1) < 2e-3, (r, k)

    def test_means_run_no_fft(self, quadrature_calls):
        # no mean, at any k, runs a grid or a transform
        for k in (2, 3, 4, 5):
            for r in (0.013, 1.0):
                p = ModelParams(rho=1.0, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=r, k=k)
                mean_khop_numeric(p)
        assert quadrature_calls
        assert {name for name, _ in quadrature_calls} == {"j0", "kernel"}
        assert all(len(shape) == 1 for name, shape in quadrature_calls if name == "kernel")

    def test_means_evaluate_the_kernel_once(self, quadrature_calls):
        # at every k, H is evaluated once, on the s-nodes, and the mean is
        # one J0 matrix and one J0 row
        for k in (2, 3, 4, 5):
            for r in (0.013, 1.0):
                p = ModelParams(rho=1.0, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=r, k=k)
                mean_khop_numeric(p)
                nodes, q_nodes = quadrature_calls[0][1]
                assert quadrature_calls == [("j0", (nodes, q_nodes)), ("j0", (q_nodes,)), ("kernel", (nodes,))]
                quadrature_calls.clear()

    def test_sigma22_runs_two_forward_transforms(self, quadrature_calls):
        # sigma22 evaluates H once, on the quadrant of its square, and
        # transforms it and q forward once each, with no inverse transform
        p = ModelParams(rho=1.0, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=1.5, k=3)
        variance_terms_numeric(p)
        grid = [(name, shape) for name, shape in quadrature_calls if len(shape) == 2]
        assert [name for name, _ in grid] == ["j0", "kernel", "rfft2", "rfft2"]
        # m = 40 nodes of 0.025 about each anchor; q's 21 rows are those
        # within m of both anchors, 60 nodes apart, and the periodic grid
        # holds q's span plus H's rows that meet it (20) on the first axis
        side = 2 * 40 + 1
        assert grid[1][1] == (40 + 1, 40 + 1)
        assert grid[2][1] == (21, side)
        n0, n1 = grid[3][1]
        assert 21 + 20 <= n0 < side and 3 * 40 + 1 <= n1

    def test_node_cap_warns_and_raises_in_strict_mode(self):
        # eta = 0.5 reaches 625 / beta**2 and decays as q**-2.5: within the
        # cap its q-range is far too short
        p = ModelParams(rho=0.01, connection=ConnectionSpec.rayleigh(beta=1.0, eta=0.5), anchor_distance=1.0, k=2)
        with pytest.warns(UserWarning, match="above its cap"):
            mean_khop_numeric(p)
        with pytest.raises(QuadratureConfigError, match="above its cap"):
            mean_khop_numeric(p, strict=True)
        # eta = 1 needs 4e6 J0 nodes for a tail of 1e-9, but within the cap
        # it still sheds less than 1e-6: no warning, and strict runs it; its
        # 2-hop mean at r = 0 is pi / 2 (H**2 integrates to pi / 2)
        p = ModelParams(rho=1.0, connection=ConnectionSpec.rayleigh(beta=1.0, eta=1.0), anchor_distance=0.0, k=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mean_khop_numeric(p, strict=True) == pytest.approx(math.pi / 2, rel=1e-6)


# Pinned bits of the quadrature: sha256 over the repr of every
# variance_terms_numeric field (k = 3) and of the k = 2, 4 and 5
# mean_khop_numeric values, on each kernel and separation below (default
# rules; 0.013 is below half a sigma22 grid step, so the anchors share a
# node of that grid).
# Computed with numpy 2.4 and scipy 1.17 on x86-64.
QUADRATURE_KERNELS = (
    ConnectionSpec.hard_disk(1.0),
    ConnectionSpec.hard_disk(0.7),
    ConnectionSpec.tabulated([(0.0, 0.9), (0.5, 0.7), (1.0, 0.35), (1.5, 0.0)]),
    ConnectionSpec.rayleigh(beta=0.7, eta=3.0),
    RAY1,
    ConnectionSpec.rayleigh(beta=1.0, eta=1.5),
)
QUADRATURE_SEPARATIONS = (0.0, 0.013, 0.5, 1.0, 1.5, 1.7)
QUADRATURE_DIGEST = "fdf0ef1756aaa3481920f60cd10702e83f812a14f95f59dfbde0d3538bb4bd90"
_TERMS = ("mean", "variance", "sigma11_term", "sigma12_term", "sigma21_term", "sigma22_term")


def _quadrature_digest_lines():
    lines = []
    for spec in QUADRATURE_KERNELS:
        for r in QUADRATURE_SEPARATIONS:
            point = dict(rho=1.3, connection=spec, anchor_distance=r)
            terms = variance_terms_numeric(ModelParams(k=3, **point))
            values = [getattr(terms, name) for name in _TERMS]
            values += [mean_khop_numeric(ModelParams(k=k, **point)) for k in (2, 4, 5)]
            lines.append(" ".join(map(repr, values)))
    return lines


def test_quadrature_digest():
    digest = hashlib.sha256("\n".join(_quadrature_digest_lines()).encode()).hexdigest()
    assert digest == QUADRATURE_DIGEST


def test_quadrature_digest_lines_from_a_cold_and_a_warm_table():
    # the Gauss-Legendre rules are a per-process table: the digest's lines
    # read the same with it emptied and then with it warm, when no rule is
    # solved again
    _gauss_legendre.cache_clear()
    cold = _quadrature_digest_lines()
    misses = _gauss_legendre.cache_info().misses
    assert cold == _quadrature_digest_lines()
    assert _gauss_legendre.cache_info().misses == misses


def test_gauss_legendre_table_is_a_fresh_solve():
    # a panel takes _PANEL_PHASE / 3 + 12 nodes, one more where rounding
    # lifts its phase: at most 53, and 106 at refine = 2.  Every rule
    # equals a fresh Golub-Welsch solve bit for bit, and its arrays are
    # read-only
    for n in range(1, 111):
        table, fresh = _gauss_legendre(n), gauss_legendre_oracle(n)
        assert [a.tobytes() for a in table] == [a.tobytes() for a in fresh], n
        for array in table:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                array *= 2.0
        assert [a.tobytes() for a in _gauss_legendre(n)] == [a.tobytes() for a in fresh], n


SIGMA22_KERNELS = (
    ConnectionSpec.hard_disk(1.0),
    TABLE,
    ConnectionSpec.rayleigh(beta=1.0, eta=1.5),
    RAY1,
    ConnectionSpec.rayleigh(beta=0.7, eta=3.0),
)


@given(
    spec=st.sampled_from(SIGMA22_KERNELS),
    m_nr=st.integers(1, 120).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, 2 * m + 1))),
    reach_steps=st.floats(0.5, 1.5),
)
@settings(max_examples=100, deadline=None)
# the hard disk at step r0 / 40, with nodes on its edge (the khop45-numeric
# point); the smallest grid, with the anchors on one node and 2m apart, the
# farthest that still have a node within m of both; the same at m = 120,
# and 2m + 1 apart, where the term is 0
@example(spec=ConnectionSpec.hard_disk(1.0), m_nr=(40, 60), reach_steps=1.0)
@example(spec=RAY1, m_nr=(1, 0), reach_steps=1.0)
@example(spec=TABLE, m_nr=(1, 2), reach_steps=1.0)
@example(spec=ConnectionSpec.rayleigh(beta=0.7, eta=3.0), m_nr=(120, 240), reach_steps=1.0)
@example(spec=ConnectionSpec.hard_disk(1.0), m_nr=(120, 241), reach_steps=1.0)
def test_sigma22_equals_the_full_square(spec, m_nr, reach_steps):
    # the quadrant-built kernel is the full-square one exactly, at any
    # step s of m nodes about each anchor and nr nodes between them
    m, nr = m_nr
    s = spec.reach * reach_steps / m
    assert _sigma22(spec, s, m, nr) == sigma22_full_square_oracle(spec, s, m, nr)


def _sigma22_pair(point, quad=None):
    """sigma22 from the package and from the fftconvolve oracle."""
    p = ModelParams(k=3, **point)
    return variance_terms_numeric(p, quad).sigma22_term, quadrature_variance_oracle(p, quad).sigma22_term


def _assert_close_to_oracle(fast, slow, scale):
    # 1e-12 relative; a term that is exactly zero (sigma22 of a hard disk
    # beyond 2 r0) is exactly zero on the fast path, while the oracle's
    # transforms leave rounding noise there, some 1e-16 of the term's scale
    np.testing.assert_array_less(np.abs(fast - slow), 1e-12 * np.maximum(np.abs(slow), scale))


@pytest.mark.parametrize("spec", QUADRATURE_KERNELS, ids=lambda spec: spec.kind)
def test_quadrature_equals_the_fftconvolve_oracle(spec):
    # sigma22 on the digest's grid of separations, at the default grids;
    # the radial terms are checked against closed forms, the lens area, a
    # doubled-node run and the grid oracle in TestRadialQuadrature
    pairs = np.array([_sigma22_pair(dict(rho=1.3, connection=spec, anchor_distance=r)) for r in QUADRATURE_SEPARATIONS])
    _assert_close_to_oracle(pairs[:, 0], pairs[:, 1], np.abs(pairs[:, 1]).max())


@given(
    spec=st.sampled_from(QUADRATURE_KERNELS),
    r=st.one_of(st.floats(0.0, 0.03), st.floats(0.03, 1.7)),
    step=st.floats(0.06, 0.15),
)
@settings(max_examples=20, deadline=None)
# nodes on the hard disk's edge: the oracle must evaluate H on the package's nodes
@example(spec=ConnectionSpec.hard_disk(0.7), r=0.5, step=0.09375)
def test_quadrature_equals_the_oracle_at_any_step(spec, r, step):
    point = dict(rho=0.9, connection=spec, anchor_distance=r)
    extent = QuadratureSpec.default_for(ModelParams(k=3, **point)).grid_extent
    quad = QuadratureSpec(grid_extent=math.ceil(extent / step) * step, grid_step=step)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # the scale is sigma22 at separation 0
        scale = abs(_sigma22_pair(dict(point, anchor_distance=0.0), quad)[0])
        fast, slow = _sigma22_pair(point, quad)
        _assert_close_to_oracle(np.array([fast]), np.array([slow]), scale)


class TestHardDisk:
    def test_two_hop_beyond_double_radius_is_zero(self):
        p = ModelParams(
            rho=1.0, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=2.5, k=2
        )
        assert abs(mean_khop_numeric(p)) < 1e-12

    def test_two_hop_lens_area(self):
        # independent closed form: area of the intersection of two unit disks
        for r in (0.5, 1.0, 1.5):
            p = ModelParams(rho=1.0, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=r, k=2)
            assert mean_khop_numeric(p) == pytest.approx(_lens(1.0, r), rel=1e-5)

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
            variance_terms_numeric(p, coarse)
        with pytest.raises(QuadratureConfigError):
            variance_terms_numeric(p, coarse, strict=True)

    def test_coarse_check_reads_the_step_the_grid_runs_at(self):
        # r = 0.3725 at grid_step 0.25 puts one step of 0.3725 between the
        # anchors, over the 0.25 limit of Rayleigh eta = 3, beta = 1
        p = ModelParams(rho=1.0, connection=ConnectionSpec.rayleigh(beta=1.0, eta=3.0), anchor_distance=0.3725, k=3)
        quad = QuadratureSpec(grid_extent=10.0, grid_step=0.25)
        with pytest.warns(UserWarning, match="grid step 0.3725"):
            variance_terms_numeric(p, quad)
        with pytest.raises(QuadratureConfigError):
            variance_terms_numeric(p, quad, strict=True)

    def test_half_step_separation_shares_the_anchor_node(self):
        # r exactly half the default step of a unit hard disk (0.025) has no
        # node of its own: sigma22's anchors share one, as below half a step
        p = ModelParams(rho=1.0, connection=ConnectionSpec.hard_disk(1.0), anchor_distance=0.0125, k=3)
        assert QuadratureSpec.default_for(p).grid_step == 0.025
        fast, slow = _sigma22_pair(dict(rho=1.0, connection=p.connection, anchor_distance=0.0125))
        _assert_close_to_oracle(np.array([fast]), np.array([slow]), abs(slow))
        at_zero = ModelParams(rho=1.0, connection=p.connection, anchor_distance=0.0, k=3)
        assert fast == variance_terms_numeric(at_zero).sigma22_term
        below = ModelParams(rho=1.0, connection=p.connection, anchor_distance=0.0124, k=3)
        assert mean_khop_numeric(p) == pytest.approx(mean_khop_numeric(below), rel=1e-3)

    def test_extent_must_cover_the_reach(self):
        p = ray_params(r=1.0)
        quad = QuadratureSpec(grid_extent=4.0, grid_step=0.05)
        with pytest.raises(QuadratureConfigError, match="does not cover the reach"):
            variance_terms_numeric(p, quad)


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
