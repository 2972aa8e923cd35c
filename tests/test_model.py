import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcmpaths.errors import ValidationError
from rcmpaths.model import (
    ConnectionSpec,
    ModelParams,
    default_margin,
)

betas = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)
etas = st.floats(min_value=0.3, max_value=4.0, allow_nan=False)
radii = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)


def test_rayleigh_zero_distance_is_zero():
    spec = ConnectionSpec.rayleigh(beta=1.0, eta=2.0)
    assert spec.evaluate(0.0) == 0.0


def test_rayleigh_unit_distance():
    spec = ConnectionSpec.rayleigh(beta=1.0, eta=2.0)
    assert spec.evaluate(1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_hard_disk_cutoff():
    spec = ConnectionSpec.hard_disk(1.0)
    assert spec.evaluate(1.0001) == 0.0
    assert spec.evaluate(1.0) == 1.0
    assert spec.evaluate(0.0) == 0.0


def test_rayleigh_general_eta():
    spec = ConnectionSpec.rayleigh(beta=2.0, eta=3.0)
    assert spec.evaluate(1.5) == pytest.approx(math.exp(-2.0 * 1.5**3), rel=1e-12)


def test_vectorized_evaluate_matches_scalar():
    spec = ConnectionSpec.rayleigh(beta=0.7, eta=2.0)
    r = np.array([0.0, 0.3, 1.0, 4.0])
    out = spec.evaluate(r)
    assert out.shape == r.shape
    for i, ri in enumerate(r):
        assert out[i] == spec.evaluate(float(ri))


@pytest.mark.parametrize(
    "bad",
    [
        dict(kind="rayleigh", beta=0.0),
        dict(kind="rayleigh", beta=-1.0),
        dict(kind="rayleigh", eta=0.0),
        dict(kind="hard_disk", r0=0.0),
        dict(kind="tabulated", table=None),
        dict(kind="tabulated", table=((1.0, 0.5), (0.5, 0.2))),
        dict(kind="tabulated", table=((0.5, 1.5),)),
        dict(kind="tabulated", table=((0.0, 0.5),)),
        dict(kind="unknown"),
    ],
)
def test_invalid_specs_rejected(bad):
    with pytest.raises(ValidationError):
        ConnectionSpec(**bad)


def test_negative_distance_rejected():
    spec = ConnectionSpec.rayleigh()
    with pytest.raises(ValidationError):
        spec.evaluate(-0.1)


class TestTabulated:
    spec = ConnectionSpec.tabulated([(0.5, 0.8), (1.0, 0.4), (2.0, 0.1)])

    def test_zero_distance(self):
        assert self.spec.evaluate(0.0) == 0.0

    def test_interpolation(self):
        assert self.spec.evaluate(0.75) == pytest.approx(0.6)
        assert self.spec.evaluate(1.5) == pytest.approx(0.25)

    def test_constant_below_first_knot(self):
        assert self.spec.evaluate(0.1) == pytest.approx(0.8)

    def test_zero_beyond_last_knot(self):
        assert self.spec.evaluate(2.0) == pytest.approx(0.1)
        assert self.spec.evaluate(2.0001) == 0.0

    def test_kernel_limit_at_zero(self):
        assert self.spec.kernel(0.0) == pytest.approx(0.8)


def test_kernel_continuous_at_zero():
    assert ConnectionSpec.rayleigh(beta=1.0).kernel(0.0) == 1.0
    assert ConnectionSpec.hard_disk(1.0).kernel(0.0) == 1.0


@given(beta=betas, eta=etas, r=radii)
@settings(max_examples=200)
def test_rayleigh_probability_bounds(beta, eta, r):
    p = ConnectionSpec.rayleigh(beta=beta, eta=eta).evaluate(r)
    assert 0.0 <= p <= 1.0


@given(r=st.lists(radii, min_size=2, max_size=20))
@settings(max_examples=100)
def test_tabulated_probability_bounds(r):
    spec = ConnectionSpec.tabulated([(0.2, 0.9), (1.0, 0.3), (3.0, 0.6)])
    out = spec.evaluate(np.array(r))
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert spec.evaluate(0.0) == 0.0


@given(beta=betas, eta=etas, r1=radii, r2=radii)
@settings(max_examples=200)
def test_rayleigh_monotone_nonincreasing(beta, eta, r1, r2):
    if r1 > r2:
        r1, r2 = r2, r1
    spec = ConnectionSpec.rayleigh(beta=beta, eta=eta)
    assert spec.evaluate(r1) >= spec.evaluate(r2) or r1 == 0.0


def test_rayleigh_strictly_decreasing_at_scale():
    spec = ConnectionSpec.rayleigh(beta=1.0)
    values = [spec.evaluate(r) for r in (0.5, 1.0, 1.5, 2.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_hard_disk_monotone():
    spec = ConnectionSpec.hard_disk(2.0)
    grid = np.linspace(0.01, 5.0, 50)
    vals = spec.evaluate(grid)
    assert np.all(np.diff(vals) <= 0)


def test_default_margin_values():
    assert default_margin(ConnectionSpec.rayleigh(beta=1.0), 3) == pytest.approx(5.0 * math.sqrt(3))
    assert default_margin(ConnectionSpec.rayleigh(beta=4.0), 1) == pytest.approx(2.5)
    assert default_margin(ConnectionSpec.hard_disk(1.5), 3) == pytest.approx(4.5)


def test_model_params_margin_default():
    p = ModelParams(rho=1.0, connection=ConnectionSpec.rayleigh(beta=1.0), anchor_distance=1.0, k=3)
    assert p.margin == pytest.approx(5.0 * math.sqrt(3))
    q = ModelParams(
        rho=1.0, connection=ConnectionSpec.rayleigh(beta=1.0), anchor_distance=1.0, k=3, margin=2.0
    )
    assert q.margin == 2.0


@pytest.mark.parametrize(
    "bad",
    [
        dict(rho=0.0),
        dict(rho=-1.0),
        dict(k=0),
        dict(k=1.5),
        dict(anchor_distance=-0.5),
        dict(margin=0.0),
    ],
)
def test_model_params_validation(bad):
    base = dict(rho=1.0, connection=ConnectionSpec.rayleigh(), anchor_distance=1.0, k=3)
    base.update(bad)
    with pytest.raises(ValidationError):
        ModelParams(**base)
