"""Tests for grid uniforms, bit sources, and grid rounding."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsamp.urand import (
    BitSource,
    EntropyError,
    UniformVariate,
    grid_round,
    neighbors,
    next_uniform,
    round_to_variate,
)

from conftest import RecordingRng


class TestUniformVariate:
    def test_value_is_exact_dyadic(self):
        u = UniformVariate(3, 3)
        assert u.value == 0.375

    def test_top_of_grid_stays_below_one(self):
        u = UniformVariate(2**53 - 1, 53)
        assert 0.0 <= u.value < 1.0

    @pytest.mark.parametrize("m,p", [(-1, 8), (256, 8), (2**53, 53), (2.5, 8), (True, 8)])
    def test_numerator_out_of_range(self, m, p):
        with pytest.raises(ValueError):
            UniformVariate(m, p)

    @pytest.mark.parametrize("p", [0, -3, 54, 2.5])
    def test_bad_precision(self, p):
        with pytest.raises(ValueError):
            UniformVariate(0, p)

    @given(st.integers(min_value=1, max_value=53))
    def test_granularity(self, p):
        # every value is an exact multiple of 2**-p and lies in [0, 1)
        for m in (0, 1, (1 << p) - 1, (1 << p) // 2):
            v = UniformVariate(m, p).value
            assert 0.0 <= v < 1.0
            assert math.ldexp(v, p) == m


class TestBitSource:
    def test_seeded_streams_replay(self):
        a = BitSource(seed=99)
        b = BitSource(seed=99)
        assert [a.getrandbits(53) for _ in range(50)] == [
            b.getrandbits(53) for _ in range(50)
        ]

    def test_different_seeds_diverge(self):
        a = BitSource(seed=1)
        b = BitSource(seed=2)
        assert [a.getrandbits(53) for _ in range(8)] != [b.getrandbits(53) for _ in range(8)]

    def test_secure_mode_draws(self):
        src = BitSource()
        vals = {next_uniform(src, 53).m for _ in range(10)}
        assert len(vals) > 1  # astronomically unlikely to collide

    def test_consumption_counters(self):
        src = BitSource(seed=4)
        for _ in range(7):
            next_uniform(src, 11)
        assert src.uniforms_drawn == 7
        assert src.bits_drawn == 77

    # random.Random seeds from abs(seed), so -1 would replay 1, and True 1
    @pytest.mark.parametrize("seed", [-1, -7, True, False, 1.0, "1"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            BitSource(seed=seed)


class _FailingEntropy:
    def getrandbits(self, k):
        raise OSError("entropy pool gone")


class TestNumerators:
    @pytest.mark.parametrize("p", [1, 8, 31, 32, 33, 52, 53])
    @pytest.mark.parametrize("k", [1, 2, 5, 1000])
    def test_matches_successive_getrandbits(self, p, k):
        src = BitSource(seed=7_000 + p)
        ref = random.Random(7_000 + p)
        ms = src.numerators(p, k)
        assert ms.dtype == np.uint64
        assert ms.tolist() == [ref.getrandbits(p) for _ in range(k)]
        assert src.uniforms_drawn == k
        assert src.bits_drawn == p * k
        # the generator is left where k scalar draws leave it
        assert src.getrandbits(40) == ref.getrandbits(40)

    def test_matches_next_uniform(self):
        a, b = BitSource(seed=3), BitSource(seed=3)
        assert a.numerators(20, 9).tolist() == [next_uniform(b, 20).m for _ in range(9)]
        assert (a.uniforms_drawn, a.bits_drawn) == (b.uniforms_drawn, b.bits_drawn)

    def test_zero_count(self):
        src = BitSource(seed=1)
        assert src.numerators(53, 0).tolist() == []
        assert src.getrandbits(40) == random.Random(1).getrandbits(40)
        assert (src.uniforms_drawn, src.bits_drawn) == (0, 0)

    def test_secure_source_counts_exactly(self):
        src = BitSource()
        ms = src.numerators(12, 50)
        assert len(ms) == 50 and all(0 <= m < 1 << 12 for m in ms)
        assert (src.uniforms_drawn, src.bits_drawn) == (50, 600)

    @pytest.mark.parametrize("p,k", [(12, 50), (32, 7), (33, 7), (53, 1000)])
    def test_secure_source_makes_one_request(self, p, k, monkeypatch):
        src = BitSource()
        rng = RecordingRng(src._rng)
        monkeypatch.setattr(src, "_rng", rng)
        assert len(src.numerators(p, k)) == k
        assert rng.requests == [(32 if p <= 32 else 64) * k]

    @pytest.mark.parametrize("p", [1, 8, 32, 33, 53])
    def test_secure_source_splits_as_seeded(self, p, monkeypatch):
        # the secure path is the seeded one with another generator behind it
        secure, seeded = BitSource(), BitSource(seed=9_000 + p)
        monkeypatch.setattr(secure, "_rng", random.Random(9_000 + p))
        assert secure.numerators(p, 300).tolist() == seeded.numerators(p, 300).tolist()
        assert (secure.uniforms_drawn, secure.bits_drawn) == (300, 300 * p)
        assert (secure.uniforms_drawn, secure.bits_drawn) == (
            seeded.uniforms_drawn, seeded.bits_drawn)
        assert secure.getrandbits(40) == seeded.getrandbits(40)

    def test_secure_failure_raises_entropy_error(self, monkeypatch):
        src = BitSource()
        monkeypatch.setattr(src, "_rng", _FailingEntropy())
        with pytest.raises(EntropyError):
            src.numerators(53, 3)

    @pytest.mark.parametrize("p,k", [(0, 1), (54, 1), (8, -1), (8, 2.0), (8, True)])
    def test_bad_arguments(self, p, k):
        with pytest.raises(ValueError):
            BitSource(seed=1).numerators(p, k)


class TestUniformity:
    def test_p1_is_a_fair_coin(self):
        src = BitSource(seed=101)
        n = 100_000
        zeros = sum(1 for _ in range(n) if next_uniform(src, 1).value == 0.0)
        assert 0.49 <= zeros / n <= 0.51

    def test_p8_covers_all_values(self):
        # coupon collector: 1e6 draws over 256 cells cannot miss one
        src = BitSource(seed=202)
        seen = {next_uniform(src, 8).m for _ in range(1_000_000)}
        assert seen == set(range(256))

    @pytest.mark.parametrize("p", [4, 8, 10])
    def test_chi_squared_uniformity(self, p):
        from scipy.stats import chi2

        src = BitSource(seed=303)
        n = 1_000_000
        cells = 1 << p
        counts = [0] * cells
        for _ in range(n):
            counts[src.getrandbits(p)] += 1
        expected = n / cells
        stat = sum((c - expected) ** 2 / expected for c in counts)
        assert stat < chi2.ppf(0.999, cells - 1)


class TestRoundToVariate:
    def test_rounds_to_grid(self):
        assert round_to_variate(0.3, 2).m == 1  # 0.3 -> 0.25
        assert round_to_variate(0.999_999, 8).m == 255  # clamps below 1.0
        assert round_to_variate(-0.2, 8).m == 0

    def test_ties_to_even_numerator(self):
        assert round_to_variate(0.375, 2).m == 2  # 1.5 grid steps -> 2

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, x):
        with pytest.raises(ValueError):
            round_to_variate(x, 8)


def clamped_round(x, p):
    # grid_round as first written: round, then clamp with min and max
    return min(max(round(math.ldexp(x, p)), 0), 2**p - 1)


class TestGridRound:
    @pytest.mark.parametrize("p", [1, 2, 53])
    def test_matches_min_max_clamp(self, p):
        step = math.ldexp(1.0, -p)
        xs = [0.0, -0.0, 5e-324, -5e-324, -step / 2, -step, -1.0, -1e290,
              1.0, 1.0 - step, 1.0 - step / 2, 1.0 - step / 4, 1.5, 2.0, 1e290]
        # half-step ties: from the one below the grid through its lowest
        # 64 steps (past its top for p = 1, 2), and through its highest 64
        xs += [(k + 0.5) * step for k in range(-1, min(2**p, 64) + 1)]
        xs += [(2**p - k - 0.5) * step for k in range(min(2**p, 64))]
        for x in xs:
            assert grid_round(x, p) == clamped_round(x, p), x

    # near the grid, and anywhere below about 1e292, beyond which
    # ldexp(x, 53) overflows in both forms
    @given(
        st.sampled_from([1, 2, 53]),
        st.one_of(st.floats(min_value=-2.0, max_value=2.0),
                  st.floats(min_value=-1e290, max_value=1e290)),
    )
    @settings(max_examples=1000)
    def test_matches_min_max_clamp_anywhere(self, p, x):
        assert grid_round(x, p) == clamped_round(x, p)

    def test_ties_to_even_then_clamped(self):
        assert [grid_round(x, 1) for x in (-0.25, 0.25, 0.75, 1.25)] == [0, 0, 1, 1]
        assert [grid_round(x, 2) for x in (0.125, 0.375, 0.625, 0.875)] == [0, 2, 2, 3]


class TestNeighbors:
    def test_interior_window(self):
        got = [v.m for v in neighbors(UniformVariate(100, 8), 2)]
        assert got == [98, 99, 100, 101, 102]

    def test_clamped_at_zero(self):
        got = [v.m for v in neighbors(UniformVariate(0, 8), 2)]
        assert got == [0, 1, 2]

    def test_clamped_at_top(self):
        got = [v.m for v in neighbors(UniformVariate(255, 8), 2)]
        assert got == [253, 254, 255]

    def test_w_zero_is_singleton(self):
        assert [v.m for v in neighbors(UniformVariate(9, 4), 0)] == [9]

    def test_negative_window_rejected(self):
        # and a window that is not an int: a float, or a bool standing for 1
        for w in (-1, 2.5, True):
            with pytest.raises(ValueError):
                neighbors(UniformVariate(0, 8), w)

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=10),
    )
    def test_window_contents(self, m, w):
        got = [v.m for v in neighbors(UniformVariate(m, 8), w)]
        assert got == sorted(set(got))  # ascending, distinct
        assert all(0 <= g <= 255 and abs(g - m) <= w for g in got)
        assert m in got
