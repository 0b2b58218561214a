"""Tests for the analytic distributions.

Where a value is checked against a number, that number comes from an
independent route: numerical quadrature of a density written out here, or
bisection of the CDF — never from the code under test.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from divsamp.dist import _laplace_cdf, gaussian_cdf, laplace_cdf, laplace_inverse_cdf


def _bits(x):
    return struct.pack("<d", x)


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

    # the scalar branch and the column form ks_statistic evaluates must
    # agree on every double, not just to within an ulp
    @given(st.floats())
    @settings(max_examples=1000)
    def test_branch_matches_column_form(self, x):
        assert _bits(laplace_cdf(x)) == _bits(_laplace_cdf(x, math))

    @pytest.mark.parametrize("x", [
        0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308,
        2.2250738585072014e-308, 1e-300, -1e-300, 37.5, -37.5, 745.2, -745.2, 800.0, -800.0,
        1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan,
        -math.nan,
    ])
    def test_branch_matches_column_form_at_edges(self, x):
        assert _bits(laplace_cdf(x)) == _bits(_laplace_cdf(x, math))

    def test_edge_values(self):
        assert _bits(laplace_cdf(-0.0)) == _bits(0.5)
        assert _bits(laplace_cdf(5e-324)) == _bits(0.5)
        assert (laplace_cdf(math.inf), laplace_cdf(-math.inf)) == (1.0, 0.0)
        assert math.isnan(laplace_cdf(math.nan))


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
