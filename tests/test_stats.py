"""Tests for the statistical verification helpers.

The KS statistic is cross-checked against scipy's implementation on the
same samples, and the distribution-telling-apart case (Laplace noise
against a variance-matched Gaussian reference) is checked against the
analytic supremum distance.
"""

import math

import numpy as np
import pytest
import scipy.stats

from divsamp.dist import gaussian_cdf, laplace_cdf
from divsamp.sampler import get_method
from divsamp.stats import (
    KS_CRIT_001,
    MomentSummary,
    distinct_output_count,
    ks_critical_value,
    ks_p_value,
    ks_statistic,
    moments,
)
from divsamp.urand import BitSource

from conftest import ScriptedSource


class TestKsCriticalValue:
    def test_known_levels(self):
        assert ks_critical_value(100) == KS_CRIT_001 / 10.0
        assert ks_critical_value(10_000) == KS_CRIT_001 / 100.0

    def test_same_bits_as_numpy_sqrt(self):
        # verify reports this value, and the golden reports hold KS_CRIT_001 / np.sqrt(n)
        for n in [1, 2, 3, 4, 5, 7, 3001, 100_000, 2**31 - 1, 2**53 + 1, 2**62]:
            assert ks_critical_value(n) == float(KS_CRIT_001 / np.sqrt(n))

    def test_bad_count(self):
        with pytest.raises(ValueError):
            ks_critical_value(0)

    @pytest.mark.parametrize("n", [2.5, 10.0, True, False, -3, "10"])
    def test_non_int_or_non_positive_count(self, n):
        with pytest.raises(ValueError, match="sample count must be a positive integer"):
            ks_critical_value(n)


class TestKsPValue:
    def test_matches_scipy_kolmogorov_tail(self):
        for n in (4, 100, 2000):
            # a KS statistic lies in [0, 1]; 3 / sqrt(n) passes 1 at n = 4
            for d in np.linspace(0.0, min(1.0, 3.0 / math.sqrt(n)), 61):
                want = scipy.stats.kstwobign.sf(math.sqrt(n) * d)
                assert ks_p_value(float(d), n) == pytest.approx(want, rel=1e-9, abs=1e-15)

    def test_critical_values_sit_at_their_level(self):
        p = ks_p_value(ks_critical_value(2000), 2000)
        assert p == pytest.approx(0.01, rel=0.01)

    def test_in_unit_interval_and_decreasing(self):
        ps = [ks_p_value(d, 500) for d in np.linspace(0.0, 1.0, 2001).tolist()]
        assert ps[0] == 1.0 and ps[-1] == 0.0
        assert all(0.0 <= p <= 1.0 for p in ps)
        assert all(a >= b for a, b in zip(ps, ps[1:]))
        # strictly while the tail is neither 1 nor 0 to double precision
        inner = [p for p in ps if 1e-300 < p < 1.0 - 1e-15]
        assert len(inner) > 100
        assert all(a > b for a, b in zip(inner, inner[1:]))

    def test_bad_count(self):
        with pytest.raises(ValueError):
            ks_p_value(0.1, 0)

    @pytest.mark.parametrize("n", [2.5, 10.0, True, False, -3])
    def test_non_int_or_non_positive_count(self, n):
        with pytest.raises(ValueError, match="sample count must be a positive integer"):
            ks_p_value(0.1, n)

    @pytest.mark.parametrize("statistic", [math.nan, -0.5, -1e-300, 1.0000000000000002,
                                           math.inf, -math.inf])
    def test_statistic_outside_unit_interval(self, statistic):
        with pytest.raises(ValueError, match=r"KS statistic must lie in \[0, 1\]"):
            ks_p_value(statistic, 10)

    def test_unit_interval_ends_accepted(self):
        assert ks_p_value(0.0, 10) == 1.0
        assert ks_p_value(-0.0, 10) == 1.0
        assert 0.0 <= ks_p_value(1.0, 10) < 1e-8


class TestKsStatistic:
    @pytest.mark.parametrize("cdf", [laplace_cdf, gaussian_cdf])
    def test_dist_cdfs_on_columns_match_per_sample_calls(self, cdf):
        rng = np.random.default_rng(11)
        xs = np.concatenate([rng.laplace(size=5000), rng.normal(scale=8.0, size=5000),
                             [0.0, -0.0, 5e-324, -5e-324, 745.0, -745.0, 40.0, -40.0]])
        for sample in (xs, xs[:7], xs[-8:]):
            # a lambda is not the dist function, so it is called per sample
            assert ks_statistic(sample, cdf) == ks_statistic(sample, lambda x: cdf(x))

    def test_single_sample_at_median(self):
        assert ks_statistic([0.0], gaussian_cdf) == 0.5

    def test_two_point_hand_value(self):
        uniform_cdf = lambda x: min(max(x, 0.0), 1.0)
        assert ks_statistic([0.75, 0.25], uniform_cdf) == 0.25

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic([], gaussian_cdf)

    @pytest.mark.parametrize("sample", [
        [math.nan, math.nan, math.nan, 0.0], [math.inf, 0.0, 1.0], [-math.inf, 0.0]])
    @pytest.mark.parametrize("cdf", [laplace_cdf, gaussian_cdf, lambda x: 0.5])
    def test_non_finite_rejected(self, sample, cdf):
        with pytest.raises(ValueError, match="finite"):
            ks_statistic(sample, cdf)

    def test_matches_scipy_one_sample(self):
        rng = np.random.default_rng(501)
        xs = rng.standard_normal(2000)
        ours = ks_statistic(xs, gaussian_cdf)
        theirs = scipy.stats.kstest(xs, "norm").statistic
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_well_fitting_sample_stays_below_critical(self):
        rng = np.random.default_rng(502)
        xs = rng.random(10_000)
        uniform_cdf = lambda x: min(max(x, 0.0), 1.0)
        assert ks_statistic(xs, uniform_cdf) < ks_critical_value(10_000)

    def test_distinguishes_laplace_from_matched_gaussian(self):
        # A variance-matched Gaussian is the closest the family gets, and
        # the analytic gap sup |F_laplace - Phi(x / sqrt 2)| is still about
        # 0.048 — far beyond the n=10^4 critical value.
        grid = np.linspace(-8.0, 8.0, 200_001)
        gap = max(abs(laplace_cdf(x) - gaussian_cdf(x / math.sqrt(2.0))) for x in grid)
        assert gap > 0.03

        rng = np.random.default_rng(503)
        xs = rng.laplace(size=10_000)
        matched = lambda x: gaussian_cdf(x / math.sqrt(2.0))
        assert ks_statistic(xs, matched) > ks_critical_value(10_000)
        assert ks_statistic(xs, matched) == pytest.approx(gap, abs=0.02)
        assert ks_statistic(xs, laplace_cdf) < ks_critical_value(10_000)

    def test_unsorted_input_allowed(self):
        rng = np.random.default_rng(504)
        xs = rng.standard_normal(500)
        shuffled = xs.copy()
        rng.shuffle(shuffled)
        assert ks_statistic(xs, gaussian_cdf) == ks_statistic(shuffled, gaussian_cdf)


def _empirical_cdf(samples):
    # right-continuous step CDF; as ks_statistic's reference it gives the two-sample statistic
    data = np.sort(np.asarray(samples, dtype=float))
    return lambda x: float(np.searchsorted(data, x, side="right")) / data.size


class TestEmpiricalCdf:
    def test_two_sample_ks_matches_scipy(self):
        rng = np.random.default_rng(505)
        xs = rng.standard_normal(800)
        ys = rng.standard_normal(1200) + 0.3
        ours = ks_statistic(xs, _empirical_cdf(ys))
        theirs = scipy.stats.ks_2samp(xs, ys).statistic
        assert ours == pytest.approx(theirs, abs=1e-12)


class TestMoments:
    def test_hand_computed_example(self):
        s = moments([1.0, 2.0, 3.0, 4.0])
        assert s.mean == 2.5
        assert s.variance == pytest.approx(5.0 / 3.0, rel=1e-15)
        assert s.skewness == 0.0
        assert s.excess_kurtosis == pytest.approx(2.5625 / 1.5625 - 3.0, rel=1e-12)

    def test_returns_summary_type(self):
        assert isinstance(moments([0.0, 1.0, 2.0, 3.0]), MomentSummary)

    def test_gaussian_sample_moments(self):
        rng = np.random.default_rng(506)
        xs = rng.standard_normal(200_000)
        s = moments(xs)
        assert abs(s.mean) < 0.01
        assert s.variance == pytest.approx(1.0, abs=0.02)
        assert abs(s.skewness) < 0.03
        assert abs(s.excess_kurtosis) < 0.05

    def test_laplace_excess_kurtosis_near_three(self):
        rng = np.random.default_rng(507)
        s = moments(rng.laplace(size=1_000_000))
        assert 2.8 < s.excess_kurtosis < 3.2
        assert s.variance == pytest.approx(2.0, abs=0.02)

    def test_shape_moments_are_affine_invariant(self):
        rng = np.random.default_rng(508)
        xs = rng.laplace(size=5000)
        a = moments(xs)
        b = moments(3.0 * xs - 7.0)
        assert b.skewness == pytest.approx(a.skewness, abs=1e-9)
        assert b.excess_kurtosis == pytest.approx(a.excess_kurtosis, abs=1e-9)
        assert b.mean == pytest.approx(3.0 * a.mean - 7.0, abs=1e-9)
        assert b.variance == pytest.approx(9.0 * a.variance, rel=1e-9)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            moments([1.0, 2.0, 3.0])

    def test_degenerate_sample(self):
        with pytest.raises(ValueError):
            moments([2.0, 2.0, 2.0, 2.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            moments([1.0, 2.0, 3.0, bad])


class TestDistinctOutputCount:
    def test_naive_image_is_tiny(self):
        # 2**8 grid points, numerator 0 folded onto 1: 255 reachable outputs
        column = get_method("naive-laplace").column(BitSource(seed=601), 8, 20_000)
        assert distinct_output_count(column) == 255

    def test_hardened_image_blows_past_grid_size(self):
        column = get_method("laplace-logcos").column(BitSource(seed=602), 8, 20_000)
        assert distinct_output_count(column) > 256

    def test_whole_grid_gives_the_exact_image(self):
        # every numerator once: the whole image, numerator 0 folded onto 1
        column = get_method("naive-laplace").column(ScriptedSource(range(256), 8), 8, 256)
        assert distinct_output_count(column) == 255

    def test_zero_signs_counted_separately(self):
        assert distinct_output_count([0.0, -0.0, 0.0, -0.0]) == 2
