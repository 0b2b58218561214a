"""Tests for the analytic distributions.

Where a value is checked against a number, that number comes from an
independent route: numerical quadrature of a density written out here, or
bisection of the CDF — never from the code under test.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from divsamp.dist import (
    ChiSquared,
    Exponential,
    Gamma,
    Gaussian,
    Laplace,
    Uniform,
    gaussian_cdf,
    laplace_cdf,
    laplace_inverse_cdf,
    pdf,
)


class TestPdf:
    def test_laplace_mode(self):
        assert pdf(Laplace(), 0.0) == 0.5

    def test_gaussian_mode(self):
        assert pdf(Gaussian(), 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-15)

    def test_uniform_density_and_support(self):
        u = Uniform(2.0, 6.0)
        assert pdf(u, 3.0) == 0.25
        assert pdf(u, 2.0) == 0.25 and pdf(u, 6.0) == 0.25  # closed interval
        assert pdf(u, 1.999) == 0.0 and pdf(u, 6.001) == 0.0

    def test_exponential_support(self):
        assert pdf(Exponential(1.0), -0.001) == 0.0
        assert pdf(Exponential(1.0), 0.0) == 1.0

    def test_exponential_integrates_to_one(self):
        total, err = quad(lambda x: pdf(Exponential(1.0), x), 0.0, 50.0)
        assert abs(total - 1.0) <= 1e-8

    @pytest.mark.parametrize(
        "spec,lo,hi",
        [
            (Gaussian(0.0, 1.0), -40.0, 40.0),
            (Gaussian(1.5, 0.5), -20.0, 20.0),
            (Laplace(0.0, 1.0), -60.0, 60.0),
            (Laplace(-2.0, 3.0), -150.0, 150.0),
            (Exponential(0.5), 0.0, 120.0),
            (Gamma(2.5, 1.5), 0.0, 100.0),
            (Gamma(0.5, 1.0), 0.0, 80.0),
            (ChiSquared(3), 0.0, 90.0),
            (ChiSquared(1), 0.0, 90.0),
            (Uniform(-1.0, 4.0), -1.0, 4.0),
        ],
    )
    def test_unit_mass(self, spec, lo, hi):
        total, _ = quad(lambda x: pdf(spec, x), lo, hi, limit=200)
        assert abs(total - 1.0) <= 1e-7

    def test_gamma_edge_values_at_zero(self):
        assert pdf(Gamma(2.0, 1.0), 0.0) == 0.0
        assert pdf(Gamma(1.0, 2.0), 0.0) == 0.5
        assert pdf(Gamma(0.5, 1.0), 0.0) == math.inf

    def test_laplace_variance_is_two_b_squared(self):
        spec = Laplace(0.0, 1.0)
        second, _ = quad(lambda x: x * x * pdf(spec, x), -60.0, 60.0, limit=200)
        assert second == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: Uniform(1.0, 1.0),
            lambda: Gaussian(0.0, 0.0),
            lambda: Gaussian(0.0, -1.0),
            lambda: Laplace(0.0, 0.0),
            lambda: Exponential(-2.0),
            lambda: Gamma(0.0, 1.0),
            lambda: Gamma(1.0, -1.0),
            lambda: ChiSquared(0),
        ],
    )
    def test_invalid_parameters(self, bad):
        with pytest.raises(ValueError):
            bad()


class TestLaplaceCdf:
    def test_median(self):
        assert laplace_cdf(0.0) == 0.5

    def test_value_at_one_against_quadrature(self):
        # independent oracle: integrate the density e**-|x| / 2
        expected, _ = quad(lambda x: 0.5 * math.exp(-abs(x)), -60.0, 1.0, limit=200)
        assert laplace_cdf(1.0) == pytest.approx(expected, abs=1e-10)
        assert laplace_cdf(1.0) == pytest.approx(0.8160602794142788, rel=1e-15)

    @given(st.floats(min_value=-30.0, max_value=30.0))
    def test_symmetry(self, x):
        assert laplace_cdf(x) + laplace_cdf(-x) == pytest.approx(1.0, abs=1e-15)

    @given(
        st.floats(min_value=-40.0, max_value=40.0),
        st.floats(min_value=-40.0, max_value=40.0),
    )
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert laplace_cdf(lo) <= laplace_cdf(hi)


class TestLaplaceInverseCdf:
    def test_quartile_against_bisection(self):
        # bisection on the CDF, no use of the closed-form inverse
        lo, hi = -50.0, 50.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if laplace_cdf(mid) < 0.25:
                lo = mid
            else:
                hi = mid
        root = (lo + hi) / 2
        assert laplace_inverse_cdf(0.25) == pytest.approx(root, abs=1e-12)
        assert laplace_inverse_cdf(0.25) == pytest.approx(-math.log(2.0), rel=1e-15)

    def test_median_is_positive_zero(self):
        out = laplace_inverse_cdf(0.5)
        assert out == 0.0 and math.copysign(1.0, out) == 1.0

    def test_antisymmetry(self):
        assert laplace_inverse_cdf(0.75) == -laplace_inverse_cdf(0.25)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, u):
        with pytest.raises(ValueError):
            laplace_inverse_cdf(u)

    def test_round_trip_on_grid(self):
        # 1e4 evenly spread grid points at p = 53
        step = (2**53 - 1) // 10_000
        for i in range(1, 10_001):
            u = math.ldexp(1 + i * step, -53)
            assert abs(laplace_cdf(laplace_inverse_cdf(u)) - u) <= 1e-12

    @given(st.integers(min_value=1, max_value=2**53 - 1))
    @settings(max_examples=300)
    def test_round_trip_anywhere(self, m):
        u = math.ldexp(m, -53)
        assert abs(laplace_cdf(laplace_inverse_cdf(u)) - u) <= 1e-12

    @given(
        st.floats(min_value=1e-12, max_value=1.0 - 1e-12, exclude_max=True),
        st.floats(min_value=1e-12, max_value=1.0 - 1e-12, exclude_max=True),
    )
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert laplace_inverse_cdf(lo) <= laplace_inverse_cdf(hi)


class TestGaussianCdf:
    def test_against_quadrature(self):
        # independent oracle: integrate the density e**(-x**2 / 2) / sqrt(2 pi)
        expected, _ = quad(
            lambda x: math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi), -40.0, 1.0, limit=200
        )
        assert gaussian_cdf(1.0) == pytest.approx(expected, abs=1e-10)
        assert gaussian_cdf(1.0) == pytest.approx(0.8413447460685429, rel=1e-14)

    def test_median(self):
        assert gaussian_cdf(0.0) == 0.5

    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_symmetry_tight(self, x):
        assert abs(gaussian_cdf(x) + gaussian_cdf(-x) - 1.0) <= 1e-15
