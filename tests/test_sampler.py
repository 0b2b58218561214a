"""Tests for the noise samplers.

Forced-uniform cases drive each sampler through a scripted bit source and
compare against the hand-evaluated transform; statistical cases check the
output distribution at moderate sample sizes with fixed seeds.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divsamp import sampler as sampler_mod
from divsamp.dist import gaussian_cdf, laplace_cdf
from divsamp.sampler import (
    DEFAULT_DIVISIBILITY,
    DRAW_BATCH_UNIFORMS,
    GaussianStream,
    SamplerMethod,
    bm_cos,
    bm_radius,
    bm_sin,
    get_method,
    method_names,
    naive_laplace_from_numerator,
)
from divsamp.stats import ks_critical_value, ks_statistic
from divsamp.urand import BitSource, EntropyError

from conftest import RecordingRng, ScriptedSource


def _draw_one(name, src, p, n=None):
    """One output of method ``name`` through its drawer."""
    return get_method(name, n).make_drawer(src, p)()


class TestNaiveLaplace:
    def test_quartile_numerator(self):
        # m=1 at p=2 is u=0.25, whose quantile is -log 2
        src = ScriptedSource([1], 2)
        assert _draw_one("naive-laplace", src, 2) == -math.log(2.0)

    def test_zero_numerator_remapped(self):
        lowest = naive_laplace_from_numerator(1, 53)
        assert naive_laplace_from_numerator(0, 53) == lowest

    def test_median_numerator_gives_positive_zero(self):
        out = naive_laplace_from_numerator(1 << 52, 53)
        assert out == 0.0 and math.copysign(1.0, out) == 1.0

    def test_consumes_one_uniform(self):
        src = BitSource(seed=5)
        _draw_one("naive-laplace", src, 53)
        assert src.uniforms_drawn == 1
        assert src.bits_drawn == 53

    @given(st.integers(min_value=1, max_value=2**16 - 1))
    def test_sign_tracks_which_half(self, m):
        out = naive_laplace_from_numerator(m, 16)
        if m < 2**15:
            assert out < 0.0
        elif m > 2**15:
            assert out > 0.0

    def test_image_size_at_p8(self):
        # 256 numerators, but 0 is remapped onto 1: 255 distinct outputs
        outs = {naive_laplace_from_numerator(m, 8) for m in range(256)}
        assert len(outs) == 255

    def test_p1_always_emits_zero(self):
        # both grid points map to u = 0.5: the zero numerator is remapped onto 1
        assert {naive_laplace_from_numerator(m, 1) for m in (0, 1)} == {0.0}


class TestBoxMullerMaps:
    @given(st.integers(0, 2**53 - 1), st.integers(0, 2**53 - 1))
    def test_pair_matches_branches(self, m1, m2):
        u1, u2 = math.ldexp(m1, -53), math.ldexp(m2, -53)
        assert sampler_mod._bm_pair(u1, u2, math) == (bm_cos(u1, u2), bm_sin(u1, u2))

    def test_radius_one_point(self):
        # 1 - u1 == e**-0.5 makes the radial factor exactly 1
        u1 = 1.0 - math.exp(-0.5)
        assert bm_radius(u1) == 1.0
        assert bm_cos(u1, 0.0) == 1.0
        assert bm_sin(u1, 0.25) == 1.0 * math.sin(math.pi / 2)

    def test_zero_uniform_degenerate(self):
        assert bm_radius(0.0) == 0.0
        assert bm_cos(0.0, 0.0) == 0.0

    def test_quarter_turn(self):
        u1 = 0.7
        assert bm_cos(u1, 0.25) == bm_radius(u1) * math.cos(math.pi / 2)
        assert bm_sin(u1, 0.5) == bm_radius(u1) * math.sin(math.pi)


class TestGaussianStream:
    def test_pair_from_scripted_numerators(self):
        # p=8: numerators 100, 30 -> u1=100/256, u2=30/256
        src = ScriptedSource([100, 30], 8)
        stream = GaussianStream(src, 8)
        u1, u2 = 100 / 256, 30 / 256
        assert stream.next() == bm_cos(u1, u2)
        assert stream.next() == bm_sin(u1, u2)

    def test_phase_cycle(self):
        src = BitSource(seed=9)
        stream = GaussianStream(src, 53)
        assert stream.phase == "empty"
        stream.next()
        assert stream.phase == "cached"
        stream.next()
        assert stream.phase == "empty"

    def test_two_uniforms_feed_two_outputs(self):
        src = BitSource(seed=9)
        stream = GaussianStream(src, 53)
        stream.next()
        stream.next()
        assert src.uniforms_drawn == 2
        stream.next()
        assert src.uniforms_drawn == 4

    def test_bad_precision(self):
        with pytest.raises(ValueError):
            GaussianStream(BitSource(seed=1), 0)


class TestSecureGaussian:
    def test_consumes_2n_uniforms(self):
        for n in (1, 2, 4, 7):
            src = BitSource(seed=3)
            _draw_one("secure-gaussian", src, 53, n)
            assert src.uniforms_drawn == 2 * n

    def test_matches_normalized_stream_sum(self):
        n = 3
        out = _draw_one("secure-gaussian", BitSource(seed=21), 53, n)
        stream = GaussianStream(BitSource(seed=21), 53)
        total = 0.0
        for _ in range(2 * n):
            total += stream.next()
        assert out == total / math.sqrt(2 * n)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_successive_draws_match_stream_sums(self, n):
        # a fresh stream per draw, summed output by output in stream order
        src, ref = BitSource(seed=22), BitSource(seed=22)
        for _ in range(200):
            stream = GaussianStream(ref, 53)
            total = 0.0
            for _ in range(2 * n):
                total += stream.next()
            assert _draw_one("secure-gaussian", src, 53, n) == total / math.sqrt(2 * n)

    def test_no_cache_leaks_between_calls(self):
        # each call starts a fresh stream: the same source position yields
        # the same leading pair regardless of prior parity
        src = BitSource(seed=4)
        _draw_one("secure-gaussian", src, 53, 1)
        count_before = src.uniforms_drawn
        _draw_one("secure-gaussian", src, 53, 1)
        assert src.uniforms_drawn == count_before + 2

    @pytest.mark.parametrize("n", [0, -1, 2.0, "4", True])
    def test_bad_divisibility(self, n):
        with pytest.raises(ValueError):
            get_method("secure-gaussian", n)

    def test_sample_moments(self):
        xs = get_method("secure-gaussian", 2).column(BitSource(seed=6001), 53, 20_000).tolist()
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
        assert abs(mean) < 0.02
        assert 0.97 < var < 1.03


class TestLaplaceExpdiff:
    def test_forced_unit_output(self):
        # 1 - u1 == e**-1 and u2 == 0 give exponentials 1 and 0
        m1 = int(math.ldexp(1.0 - math.exp(-1.0), 53))
        src = ScriptedSource([m1, 0], 53)
        assert _draw_one("laplace-expdiff", src, 53) == 1.0

    def test_swapped_operands_negate(self):
        m1 = int(math.ldexp(1.0 - math.exp(-1.0), 53))
        src = ScriptedSource([0, m1], 53)
        assert _draw_one("laplace-expdiff", src, 53) == -1.0

    def test_consumes_two_uniforms(self):
        src = BitSource(seed=8)
        _draw_one("laplace-expdiff", src, 53)
        assert src.uniforms_drawn == 2


class TestLaplaceFromGaussians:
    def test_sqsum_component_arithmetic(self, monkeypatch):
        vals = iter([2.0, 1.0, 0.0, 1.0])
        monkeypatch.setattr(sampler_mod, "_gaussian_sum_kernel", lambda take, p, lm, n: next(vals))
        # (4 - 1 + 0 - 1) / 2
        assert _draw_one("laplace-sqsum", BitSource(seed=0), 53, 1) == 1.0

    def test_proddiff_component_arithmetic(self, monkeypatch):
        vals = iter([3.0, 2.0, 1.0, 1.0])
        monkeypatch.setattr(sampler_mod, "_gaussian_sum_kernel", lambda take, p, lm, n: next(vals))
        assert _draw_one("laplace-proddiff", BitSource(seed=0), 53, 1) == 5.0

    def test_proddiff_zero_components(self, monkeypatch):
        vals = iter([0.0, 5.0, 0.0, 7.0])
        monkeypatch.setattr(sampler_mod, "_gaussian_sum_kernel", lambda take, p, lm, n: next(vals))
        assert _draw_one("laplace-proddiff", BitSource(seed=0), 53, 1) == 0.0

    @pytest.mark.parametrize("name", ["laplace-sqsum", "laplace-proddiff"],
                             ids=lambda name: name.replace("-", "_"))
    def test_consumes_8m_uniforms(self, name):
        for m in (1, 2):
            src = BitSource(seed=12)
            _draw_one(name, src, 53, m)
            assert src.uniforms_drawn == 8 * m


class TestSymmetricCos:
    def test_quarter_points_at_p8(self):
        c = math.cos(math.pi * 0.25)
        assert sampler_mod._symmetric_cos(64, 8, math) == c
        assert sampler_mod._symmetric_cos(128, 8, math) == -1.0
        assert sampler_mod._symmetric_cos(192, 8, math) == -c
        assert sampler_mod._symmetric_cos(0, 8, math) == 1.0

    @given(st.integers(min_value=2, max_value=20), st.data())
    def test_top_bit_negates_exactly(self, p, data):
        m = data.draw(st.integers(min_value=0, max_value=2**p - 1))
        half = 1 << (p - 1)
        a = sampler_mod._symmetric_cos(m, p, math)
        b = sampler_mod._symmetric_cos(m ^ half, p, math)
        assert a == -b
        assert abs(a) <= 1.0


class TestLaplaceLogcos:
    def test_forced_single_term(self):
        # u3 = 0 kills the second term; the first is log(1/2) cos(pi/4)
        src = ScriptedSource([2, 1, 0, 0], 2)
        expected = math.log(0.5) * math.cos(math.pi * 0.25)
        assert _draw_one("laplace-logcos", src, 2) == expected

    def test_forced_symmetric_variant(self):
        # numerator 192 at p=8 puts the cosine in the negated half
        src = ScriptedSource([128, 192, 0, 0], 8)
        expected = math.log(0.5) * -math.cos(math.pi * 0.25)
        assert _draw_one("laplace-logcos-sym", src, 8) == expected

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_consumes_four_uniforms(self, symmetric):
        src = BitSource(seed=15)
        _draw_one("laplace-logcos-sym" if symmetric else "laplace-logcos", src, 53)
        assert src.uniforms_drawn == 4


class TestDistributionalFit:
    """Seeded goodness-of-fit screens at moderate n (the full-size runs
    live in the acceptance suite)."""

    N = 20_000

    @pytest.mark.parametrize(
        "name", ["naive-laplace", "laplace-expdiff", "laplace-sqsum",
                 "laplace-proddiff", "laplace-logcos", "laplace-logcos-sym"]
    )
    def test_laplace_family_ks(self, name):
        draw = get_method(name).make_drawer(BitSource(seed=40_000 + sum(name.encode())))
        xs = [draw() for _ in range(self.N)]
        assert ks_statistic(xs, laplace_cdf) < ks_critical_value(self.N)

    @pytest.mark.parametrize("name", ["box-muller", "secure-gaussian"])
    def test_gaussian_family_ks(self, name):
        draw = get_method(name).make_drawer(BitSource(seed=41_000 + sum(name.encode())))
        xs = [draw() for _ in range(self.N)]
        assert ks_statistic(xs, gaussian_cdf) < ks_critical_value(self.N)

    def test_laplace_variance_near_two(self):
        draw = get_method("laplace-logcos").make_drawer(BitSource(seed=42_000))
        xs = [draw() for _ in range(self.N)]
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
        assert 1.9 < var < 2.1


class TestMethodRegistry:
    def test_names_cover_registry(self):
        names = method_names()
        assert len(names) == 8
        for name in names:
            assert get_method(name).name == name

    def test_metadata(self):
        assert get_method("naive-laplace").hardening == "naive"
        assert get_method("box-muller").family == "gaussian"
        assert get_method("laplace-expdiff").uniforms_per_draw == 2
        assert get_method("laplace-logcos").uniforms_per_draw == 4
        assert get_method("laplace-sqsum").uniforms_per_draw == 8
        assert get_method("laplace-sqsum", 3).uniforms_per_draw == 24
        assert get_method("laplace-proddiff", 2).uniforms_per_draw == 16
        assert get_method("secure-gaussian").uniforms_per_draw == 2 * DEFAULT_DIVISIBILITY
        assert get_method("secure-gaussian", 6).uniforms_per_draw == 12

    def test_divisibility_rejected_where_meaningless(self):
        for name in ("naive-laplace", "box-muller", "laplace-expdiff",
                     "laplace-logcos", "laplace-logcos-sym"):
            with pytest.raises(ValueError):
                get_method(name, 2)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_method("laplace-magic")

    def test_bad_divisibility_value(self):
        with pytest.raises(ValueError):
            get_method("secure-gaussian", 0)
        with pytest.raises(ValueError):
            get_method("secure-gaussian", True)

    def test_drawer_is_bound_and_deterministic(self):
        method = get_method("laplace-logcos")
        xs = [method.make_drawer(BitSource(seed=70))() for _ in range(2)]
        assert xs[0] == xs[1]

    def test_drawer_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            get_method("naive-laplace").make_drawer(BitSource(seed=1), 60)

    def test_method_dataclass_fields(self):
        m = get_method("secure-gaussian", 2)
        assert isinstance(m, SamplerMethod)
        assert (m.family, m.hardening) == ("gaussian", "divisible")


DIVISIBLE = ("laplace-sqsum", "laplace-proddiff", "secure-gaussian")


def _bits(xs):
    return [struct.pack("<d", x) for x in xs]


def _scalar_then_bulk(method, p, seed, count):
    """Draw ``count`` values both ways from twin sources; return both and the sources."""
    scalar_src, bulk_src = BitSource(seed=seed), BitSource(seed=seed)
    drawer = method.make_drawer(scalar_src, p)
    scalar = [drawer() for _ in range(count)]
    bulk = method.column(bulk_src, p, count).tolist()
    return scalar, bulk, scalar_src, bulk_src


class TestBulkDraw:
    """``SamplerMethod.column`` against ``count`` calls of the scalar drawer."""

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(method_names()),
        n=st.integers(1, 8),
        p=st.integers(1, 53),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 40),
    )
    def test_bit_identical_to_scalar_drawer(self, name, n, p, seed, count):
        method = get_method(name, n if name in DIVISIBLE else None)
        scalar, bulk, scalar_src, bulk_src = _scalar_then_bulk(method, p, seed, count)
        assert _bits(bulk) == _bits(scalar)
        assert bulk_src.uniforms_drawn == scalar_src.uniforms_drawn
        assert bulk_src.bits_drawn == scalar_src.bits_drawn
        assert bulk_src.getrandbits(40) == scalar_src.getrandbits(40)

    @pytest.mark.parametrize("name", method_names())
    def test_across_batches_with_odd_count(self, name):
        method = get_method(name)
        # three batches and then some, ending on an odd count
        count = 3 * DRAW_BATCH_UNIFORMS // method.uniforms_per_draw + 5
        scalar, bulk, scalar_src, bulk_src = _scalar_then_bulk(method, 53, 808, count)
        assert _bits(bulk) == _bits(scalar)
        assert (bulk_src.uniforms_drawn, bulk_src.bits_drawn) == (
            scalar_src.uniforms_drawn, scalar_src.bits_drawn)
        assert bulk_src.getrandbits(40) == scalar_src.getrandbits(40)

    def test_box_muller_odd_count_spends_whole_pair(self):
        src = BitSource(seed=9)
        assert len(get_method("box-muller").column(src, 53, 3)) == 3
        assert src.uniforms_drawn == 4

    def test_replays_scripted_source(self):
        src = ScriptedSource([1, 0, 255], 8)
        assert get_method("naive-laplace").column(src, 8, 3).tolist() == [
            naive_laplace_from_numerator(m, 8) for m in (1, 0, 255)]
        assert (src.uniforms_drawn, src.bits_drawn) == (3, 24)

    def test_scripted_source_checks_precision(self):
        with pytest.raises(AssertionError, match="script written for p=8"):
            get_method("naive-laplace").column(ScriptedSource([1], 8), 9, 1)

    @pytest.mark.parametrize("name", method_names())
    def test_secure_source(self, name):
        method = get_method(name)
        src = BitSource()
        xs = method.column(src, 53, 7).tolist()
        assert len(xs) == 7 and all(math.isfinite(x) for x in xs)
        uniforms = method.uniforms_per_draw * (8 if name == "box-muller" else 7)
        assert (src.uniforms_drawn, src.bits_drawn) == (uniforms, 53 * uniforms)

    def test_secure_source_one_request_per_batch(self, monkeypatch):
        src = BitSource()
        rng = RecordingRng(src._rng)
        monkeypatch.setattr(src, "_rng", rng)
        count = 2 * DRAW_BATCH_UNIFORMS + 5
        assert len(get_method("naive-laplace").column(src, 53, count)) == count
        assert rng.requests == [64 * DRAW_BATCH_UNIFORMS] * 2 + [64 * 5]

    def test_secure_entropy_failure(self, monkeypatch):
        class Failing:
            def getrandbits(self, k):
                raise OSError("entropy pool gone")

        src = BitSource()
        monkeypatch.setattr(src, "_rng", Failing())
        with pytest.raises(EntropyError):
            get_method("laplace-logcos").column(src, 53, 2)

    @pytest.mark.parametrize("p,count", [(0, 1), (54, 1), (53, -1), (53, 2.0), (53, True)])
    def test_bad_arguments(self, p, count):
        with pytest.raises(ValueError):
            get_method("naive-laplace").column(BitSource(seed=1), p, count)
