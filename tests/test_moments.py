import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import alternating_binomial_partial_sum_oracle
from rcmpaths.errors import ValidationError
from rcmpaths.moments import (
    LOWER_BOUND,
    UPPER_BOUND,
    PathCountSamples,
    alternating_binomial_partial_sum,
    bonferroni_bound_order2,
    empirical_factorial_moment,
    existence_brackets,
    falling_factorial,
    quadratic_existence_bound,
    truncated_zero_probability,
)

def samples(counts, k=3):
    return PathCountSamples(k=k, counts=np.array(counts, dtype=np.int64))


class TestFactorialMoments:
    def test_all_zero(self):
        assert empirical_factorial_moment(samples([0, 0, 0]), 1) == 0.0

    def test_single_sample(self):
        assert empirical_factorial_moment(samples([3]), 2) == 6.0

    def test_mixed(self):
        assert empirical_factorial_moment(samples([5, 0, 2]), 2) == pytest.approx(22 / 3)

    def test_order_zero_is_one(self):
        assert empirical_factorial_moment(samples([5, 0, 2]), 0) == 1.0

    def test_first_moment_is_mean(self):
        cts = [4, 0, 7, 1, 1, 3]
        assert empirical_factorial_moment(samples(cts), 1) == pytest.approx(np.mean(cts))

    def test_second_moment_identity(self):
        cts = np.array([4, 0, 7, 1, 1, 3])
        expected = np.mean(cts * cts - cts)
        assert empirical_factorial_moment(samples(cts), 2) == pytest.approx(expected)

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=30))
    @settings(max_examples=200)
    def test_falling_factorial_matches_comb(self, sigma, i):
        assert falling_factorial(sigma, i) == math.comb(sigma, i) * math.factorial(i)

    def test_negative_order_rejected(self):
        with pytest.raises(ValidationError):
            empirical_factorial_moment(samples([1]), -1)


class TestSampleValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            samples([])

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            samples([1, -1])


class TestTruncatedZeroProbability:
    def test_all_zero_counts(self):
        for m in (0, 1, 5):
            b = truncated_zero_probability(samples([0, 0]), m)
            assert b.partial_sum == 1.0
            assert b.existence_estimate == 0.0

    def test_single_one(self):
        assert truncated_zero_probability(samples([1]), 0).partial_sum == 1.0
        assert truncated_zero_probability(samples([1]), 1).partial_sum == 0.0

    def test_count_four_order_two(self):
        b = truncated_zero_probability(samples([4]), 2)
        assert b.partial_sum == 1 - 4 + 6
        assert b.partial_sum == math.comb(3, 2)

    def test_sides(self):
        assert truncated_zero_probability(samples([2]), 2).side == UPPER_BOUND
        assert truncated_zero_probability(samples([2]), 3).side == LOWER_BOUND

    def test_saturation_equals_zero_frequency(self):
        cts = [0, 3, 0, 1, 5, 0, 2]
        s = samples(cts)
        zero_freq = cts.count(0) / len(cts)
        for m in (max(cts), max(cts) + 1, 80):
            b = truncated_zero_probability(s, m)
            assert b.partial_sum == pytest.approx(zero_freq, abs=0.0)
            assert b.existence_estimate == pytest.approx(1 - zero_freq, abs=0.0)

    @given(st.integers(min_value=0, max_value=400), st.integers(min_value=0, max_value=100))
    @settings(max_examples=300)
    def test_alternating_partial_sum_identity(self, sigma, m):
        got = alternating_binomial_partial_sum(sigma, m)
        assert got == alternating_binomial_partial_sum_oracle(sigma, m)
        if sigma == 0:
            assert got == 1
        else:
            assert got == (-1) ** m * math.comb(sigma - 1, m)
            # even orders overestimate the zero indicator, odd underestimate
            if m % 2 == 0:
                assert got >= 0
            else:
                assert got <= 0

    @given(
        st.lists(st.integers(min_value=0, max_value=150), min_size=1, max_size=60),
        st.integers(min_value=0, max_value=90),
    )
    @settings(max_examples=200)
    def test_grouped_sum_matches_per_sample_oracle(self, cts, m):
        # grouping equal counts must keep the sum exact: same float as
        # averaging the per-sample integer sums
        want = sum(alternating_binomial_partial_sum_oracle(c, m) for c in cts) / len(cts)
        assert truncated_zero_probability(samples(cts), m).partial_sum == want

    def test_negative_order_rejected(self):
        with pytest.raises(ValidationError):
            truncated_zero_probability(samples([1]), -1)

    @given(
        st.lists(st.integers(min_value=0, max_value=150), min_size=1, max_size=60),
        st.lists(st.integers(min_value=0, max_value=90), max_size=6, unique=True),
    )
    @settings(max_examples=200)
    def test_brackets_of_many_orders_equal_each_order(self, cts, orders):
        # one pass over the distinct counts serves every order: each bracket
        # is the one-order truncation, and the per-sample oracle's sum
        got = existence_brackets(samples(cts), orders)
        assert got == tuple(truncated_zero_probability(samples(cts), m) for m in orders)
        for bracket, m in zip(got, orders):
            assert bracket.partial_sum == sum(alternating_binomial_partial_sum_oracle(c, m) for c in cts) / len(cts)
        with pytest.raises(ValidationError):
            existence_brackets(samples(cts), [*orders, -1])


class TestBounds:
    def test_quadratic_bound_plugins(self):
        assert quadratic_existence_bound(0.0, 0.0) == 1.0
        assert quadratic_existence_bound(1.0, 0.0) == 0.0
        assert quadratic_existence_bound(2.357, 9.954) == pytest.approx(11.797, abs=2e-3)

    def test_bonferroni_plugins(self):
        assert bonferroni_bound_order2(0.0, 0.0) == 0.0
        assert bonferroni_bound_order2(2.357, 9.954) == pytest.approx(-4.219, abs=2e-3)

    @given(st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=100)
    def test_bonferroni_poisson_case(self, lam):
        # factorial moments of a Poisson law are lam**i
        assert bonferroni_bound_order2(lam, lam) == pytest.approx(lam - lam * lam / 2, rel=1e-12)

    def test_no_clamping(self):
        assert quadratic_existence_bound(3.0, 20.0) > 1.0
        assert bonferroni_bound_order2(10.0, 100.0) < 0.0
