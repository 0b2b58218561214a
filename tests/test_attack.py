"""Tests for the elimination attacks, the pair inversion, and the cost models.

End-to-end attack runs use seeded sources, so every outcome asserted here
is reproducible.  Counting results are cross-checked against plain grid
enumeration rather than against the closed form under test.
"""

import math
import random
import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from divsamp.attack import (
    BRUTE_FORCE_MAX_PRECISION,
    DEFAULT_PAIR_WINDOW,
    DEFAULT_WINDOW,
    MAX_CHECK_EVALUATIONS,
    MAX_SEARCH_POINTS,
    AttackOutcome,
    BruteForceResult,
    PhaseAlignmentError,
    QueryOracle,
    brute_force_single_gaussian,
    count_feasible_checks,
    expected_checks,
    gaussian_pair_attack,
    invert_box_muller,
    mironov_attack,
)
from divsamp import attack
from divsamp.attack import _laplace_survives, _nearest_first, _pair_matches, _pair_survives
from divsamp.dist import laplace_cdf
from divsamp.sampler import (
    TWO_PI, GaussianStream, _bm_pair, _bm_radius, _naive_laplace, get_method,
)
from divsamp.urand import BitSource, grid_round
from conftest import ScriptedSource, reference_brute_force

# invalid campaign arguments shared by both attacks; each must be rejected
# before the first query
BAD_CAMPAIGN_KWARGS = [
    {"p": 0},
    {"w": -1},
    {"scale": 0.0},
    {"scale": -1.0},
    {"scale": math.inf},
    {"max_queries": -5},
    {"candidates": [0.0, math.nan]},
    {"candidates": [math.inf, 1.0]},
    {"w": 100_000_000},
    {"w": 2.5},
    {"w": True},
    {"max_queries": True},
    {"max_queries": 2.5},
    {"scale": True},
]


def naive_output(m, p):
    """The registered naive-laplace drawer's output for grid numerator ``m``."""
    return get_method("naive-laplace").make_drawer(ScriptedSource([m], p), p)()


def stream_pair(m1, m2, p):
    """Both halves of the Box-Muller stream's evaluation at grid pair ``(m1, m2)``."""
    stream = GaussianStream(ScriptedSource([m1, m2], p), p)
    return stream.next(), stream.next()


class TestQueryOracle:
    def test_counts_calls(self):
        oracle = QueryOracle(5.0, lambda: 1.5)
        assert oracle.call_count == 0
        assert oracle.query() == 6.5
        assert oracle.query() == 6.5
        assert oracle.call_count == 2

    def test_stream_defaults_to_none(self):
        assert QueryOracle(0.0, lambda: 0.0).stream is None


class TestMironovAttack:
    @pytest.mark.parametrize(
        "target,seed", [(1.0, 9001), (-0.375, 9002), (0.125, 9003)]
    )
    def test_recovers_target_from_naive_noise(self, target, seed):
        oracle = QueryOracle(target, get_method("naive-laplace").make_drawer(BitSource(seed=seed)))
        cands = [target + d for d in (-1.0, 0.0, 0.6, 2.25)]
        out = mironov_attack(oracle, cands, max_queries=40)
        assert out.status == "identified"
        assert out.value == target
        assert out.queries_used == 40 == oracle.call_count

    def test_scaled_noise(self):
        draw = get_method("naive-laplace").make_drawer(BitSource(seed=9010))
        scale = 2.0
        oracle = QueryOracle(1.0, lambda: scale * draw())
        out = mironov_attack(oracle, [0.0, 1.0, 2.0], max_queries=40, scale=scale)
        assert out.status == "identified"
        assert out.value == 1.0

    @pytest.mark.parametrize(
        "noise_name,make_noise",
        [
            ("expdiff", lambda src: get_method("laplace-expdiff").make_drawer(src)),
            ("logcos", lambda src: get_method("laplace-logcos").make_drawer(src)),
        ],
    )
    def test_hardened_noise_eliminates_everything(self, noise_name, make_noise):
        src = BitSource(seed=9100 + len(noise_name))
        oracle = QueryOracle(1.0, make_noise(src))
        out = mironov_attack(oracle, [0.0, 1.0, 2.0], max_queries=40)
        assert out.status == "all_eliminated"
        assert out.value is None
        # everything was eliminated inside the budget
        assert out.queries_used < 40
        flat = [c for _, gone in out.trace for c in gone]
        assert sorted(flat) == [0.0, 1.0, 2.0]

    def test_singleton_returns_without_querying(self):
        oracle = QueryOracle(3.25, lambda: 0.0)
        out = mironov_attack(oracle, [3.25])
        assert (out.status, out.value, out.queries_used) == ("identified", 3.25, 0)
        assert oracle.call_count == 0

    def test_duplicates_collapse_to_singleton(self):
        oracle = QueryOracle(1.0, lambda: 0.0)
        out = mironov_attack(oracle, [1, 1.0])
        assert (out.status, out.queries_used) == ("identified", 0)
        assert out.value == 1.0

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            mironov_attack(QueryOracle(0.0, lambda: 0.0), [])

    def test_zero_budget_is_exhausted(self):
        out = mironov_attack(QueryOracle(0.0, lambda: 0.0), [0.0, 1.0], max_queries=0)
        assert (out.status, out.queries_used, out.trace) == ("budget_exhausted", 0, [])

    def test_trace_partitions_candidates(self):
        oracle = QueryOracle(0.5, get_method("naive-laplace").make_drawer(BitSource(seed=9050)))
        cands = [-2.0, 0.5, 3.0]
        out = mironov_attack(oracle, cands, max_queries=30)
        eliminated = [c for _, gone in out.trace for c in gone]
        assert sorted(eliminated + [out.value]) == sorted(cands)

    def test_survival_checks_count_live_candidates(self):
        oracle = QueryOracle(0.5, get_method("naive-laplace").make_drawer(BitSource(seed=9050)))
        out = mironov_attack(oracle, [-2.0, 0.5, 3.0], max_queries=30)
        alive, checks = 3, 0
        for _, gone in out.trace:
            checks += alive
            alive -= len(gone)
        assert out.survival_checks == checks
        assert mironov_attack(oracle, [1.0]).survival_checks == 0

    def test_nan_query_eliminates_everything(self):
        # no grid point maps to NaN, so a NaN query ends the campaign
        out = mironov_attack(QueryOracle(0.0, lambda: math.nan), [0.0, 1.0], max_queries=4)
        assert (out.status, out.value, out.queries_used) == ("all_eliminated", None, 1)
        assert out.survival_checks == 2
        assert math.isnan(out.trace[0][0]) and out.trace[0][1] == [0.0, 1.0]

    def test_nan_after_a_normal_round(self):
        draw = get_method("naive-laplace").make_drawer(BitSource(seed=9070))
        noise = iter([draw(), math.nan])
        out = mironov_attack(QueryOracle(0.0, lambda: next(noise)), [0.0, 1.0, 2.0],
                             max_queries=10)
        assert (out.status, out.queries_used) == ("all_eliminated", 2)
        (_, first), (_, second) = out.trace
        assert 0.0 in second
        assert sorted(first + second) == [0.0, 1.0, 2.0]
        assert out.survival_checks == 3 + len(second)

    @pytest.mark.parametrize("kwargs", BAD_CAMPAIGN_KWARGS)
    def test_bad_parameters(self, kwargs):
        oracle = QueryOracle(0.0, lambda: 0.0)
        with pytest.raises(ValueError):
            mironov_attack(oracle, **{"candidates": [0.0, 1.0], **kwargs})
        assert oracle.call_count == 0

    def test_int_candidates_come_back_as_floats(self):
        oracle = QueryOracle(1.0, get_method("naive-laplace").make_drawer(BitSource(seed=9060)))
        out = mironov_attack(oracle, [0, 1, 2], max_queries=30)
        assert isinstance(out.value, float) and out.value == 1.0


class TestInvertBoxMuller:
    def test_axis_points(self):
        u1, u2 = invert_box_muller(1.0, 0.0)
        assert u1 == 1.0 - math.exp(-0.5)
        assert u2 == 0.0
        assert invert_box_muller(0.0, 1.0)[1] == 0.25
        assert invert_box_muller(-1.0, 0.0)[1] == 0.5
        assert invert_box_muller(0.0, -1.0)[1] == 0.75

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            invert_box_muller(0.0, 0.0)
        with pytest.raises(ValueError):
            invert_box_muller(-0.0, 0.0)

    def test_round_trip_over_seeded_corpus(self):
        # 1e4 pairs; recovered uniforms stay within two grid units of truth.
        # Twin sources: one gives the uniforms, the other feeds the stream.
        ms = BitSource(seed=8086).numerators(53, 20_000).tolist()
        stream = GaussianStream(BitSource(seed=8086))
        worst = 0.0
        for m1, m2 in zip(ms[::2], ms[1::2]):
            u1, u2 = math.ldexp(m1, -53), math.ldexp(m2, -53)
            rec1, rec2 = invert_box_muller(stream.next(), stream.next())
            worst = max(worst, abs(rec1 - u1), abs(rec2 - u2))
        assert worst <= 2.0**-52

    @given(
        st.integers(min_value=1, max_value=2**53 - 1),
        st.integers(min_value=0, max_value=2**53 - 1),
    )
    @settings(max_examples=300)
    def test_round_trip_anywhere(self, m1, m2):
        u1 = math.ldexp(m1, -53)
        u2 = math.ldexp(m2, -53)
        rec1, rec2 = invert_box_muller(*_bm_pair(u1, u2, math))
        assert abs(rec1 - u1) <= 2.0**-50
        assert abs(rec2 - u2) <= 2.0**-50

    def test_u2_normalized_into_unit_interval(self):
        for angle_m in range(0, 16):
            _, u2 = invert_box_muller(*_bm_pair(0.5, angle_m / 16, math))
            assert 0.0 <= u2 < 1.0


class TestGaussianPairAttack:
    @pytest.mark.parametrize("target,seed", [(0.0, 9201), (1.0, 9202)])
    def test_recovers_target_from_stream_noise(self, target, seed):
        stream = GaussianStream(BitSource(seed=seed))
        oracle = QueryOracle(target, stream.next, stream=stream)
        out = gaussian_pair_attack(oracle, [target - 1.0, target, target + 0.5],
                                   max_queries=40)
        assert out.status == "identified"
        assert out.value == target
        assert out.queries_used == 40

    def test_scaled_noise(self):
        stream = GaussianStream(BitSource(seed=9210))
        scale = 3.0
        oracle = QueryOracle(2.0, lambda: scale * stream.next(), stream=stream)
        out = gaussian_pair_attack(oracle, [0.0, 2.0, 4.0], max_queries=40, scale=scale)
        assert (out.status, out.value) == ("identified", 2.0)

    def test_secure_noise_eliminates_everything(self):
        draw = get_method("secure-gaussian", 1).make_drawer(BitSource(seed=9220))
        oracle = QueryOracle(1.0, draw)
        out = gaussian_pair_attack(oracle, [0.0, 1.0, 2.0], max_queries=60)
        assert out.status == "all_eliminated"
        assert out.value is None

    def test_misaligned_stream_rejected(self):
        stream = GaussianStream(BitSource(seed=9230))
        stream.next()  # leaves the sine half cached
        oracle = QueryOracle(0.0, stream.next, stream=stream)
        with pytest.raises(PhaseAlignmentError):
            gaussian_pair_attack(oracle, [0.0, 1.0])

    def test_queries_consumed_in_pairs(self):
        stream = GaussianStream(BitSource(seed=9240))
        oracle = QueryOracle(0.0, stream.next, stream=stream)
        out = gaussian_pair_attack(oracle, [0.0, 5.0], max_queries=7)
        assert out.queries_used % 2 == 0
        assert oracle.call_count <= 7

    def test_budget_below_one_pair(self):
        stream = GaussianStream(BitSource(seed=9250))
        oracle = QueryOracle(0.0, stream.next, stream=stream)
        out = gaussian_pair_attack(oracle, [0.0, 1.0], max_queries=1)
        assert (out.status, out.queries_used, out.trace) == ("budget_exhausted", 0, [])

    def test_singleton_returns_without_querying(self):
        stream = GaussianStream(BitSource(seed=9260))
        oracle = QueryOracle(4.5, stream.next, stream=stream)
        out = gaussian_pair_attack(oracle, [4.5])
        assert (out.status, out.value, out.queries_used) == ("identified", 4.5, 0)

    @pytest.mark.parametrize("halves", [(math.nan, math.nan), (0.5, math.nan), (math.nan, 0.5)])
    def test_nan_half_eliminates_everything(self, halves):
        # either half NaN: no grid pair reproduces the round, which ends the campaign
        noise = iter(halves)
        out = gaussian_pair_attack(QueryOracle(0.0, lambda: next(noise)), [0.0, 1.0],
                                   max_queries=8)
        assert (out.status, out.value, out.queries_used) == ("all_eliminated", None, 2)
        assert out.survival_checks == 2
        assert out.trace[0][1] == [0.0, 1.0]

    @pytest.mark.parametrize("kwargs", BAD_CAMPAIGN_KWARGS)
    def test_bad_parameters(self, kwargs):
        stream = GaussianStream(BitSource(seed=9280))
        oracle = QueryOracle(0.0, stream.next, stream=stream)
        with pytest.raises(ValueError):
            gaussian_pair_attack(oracle, **{"candidates": [0.0, 1.0], **kwargs})
        assert oracle.call_count == 0

    def test_trace_records_query_pairs(self):
        stream = GaussianStream(BitSource(seed=9270))
        oracle = QueryOracle(0.0, stream.next, stream=stream)
        out = gaussian_pair_attack(oracle, [0.0, 10.0], max_queries=8)
        for (q1, q2), _ in out.trace:
            assert isinstance(q1, float) and isinstance(q2, float)


def campaign_oracle(kind, seed, skip=0):
    """A target-0 oracle over seeded noise for ``kind``'s attack, ``skip`` draws in."""
    if kind == "mironov":
        stream, noise = None, get_method("naive-laplace").make_drawer(BitSource(seed=seed))
    else:
        stream = GaussianStream(BitSource(seed=seed))
        noise = stream.next
    for _ in range(skip):
        noise()
    return QueryOracle(0.0, noise, stream=stream)


class TestBudgetPerCampaign:
    """A campaign's budget and ``queries_used`` count its own queries.

    The oracle's ``call_count`` keeps counting across campaigns, so a second
    campaign on one oracle must not read the first one's queries as its own.
    """

    @pytest.mark.parametrize("kind", ["mironov", "pair"])
    def test_second_campaign_on_one_oracle(self, kind):
        attack_fn = mironov_attack if kind == "mironov" else gaussian_pair_attack
        oracle = campaign_oracle(kind, 9500)
        first = attack_fn(oracle, [0.0, 1.0], max_queries=10)
        second = attack_fn(oracle, [0.0, 1.0], max_queries=10)
        for out in (first, second):
            assert (out.status, out.value, out.queries_used) == ("identified", 0.0, 10)
            assert len(out.trace) == (10 if kind == "mironov" else 5)
            assert out.survival_checks > len(out.trace)
        assert oracle.call_count == 20
        # the second campaign is the one a fresh oracle ten draws in would give
        assert second == attack_fn(campaign_oracle(kind, 9500, skip=10), [0.0, 1.0],
                                   max_queries=10)


finite = st.floats(allow_nan=False, allow_infinity=False)


def grid_window(u, p, w):
    """The numerators within ``w`` steps of the grid point nearest ``u``, clamped to the grid."""
    assert 0.0 <= u <= 1.0, u
    top = (1 << p) - 1
    m = min(round(math.ldexp(u, p)), top)
    window = range(max(0, m - w), min(top, m + w) + 1)
    assert 0 <= window[0] <= m <= window[-1] <= top
    return window


def reference_laplace_survives(q, c, p, w, scale):
    # the survival check over its whole window, ascending, in the naive
    # kernel helper's arithmetic
    window = grid_window(laplace_cdf((q - c) / scale), p, w)
    return any(scale * _naive_laplace(k, p, math) + c == q for k in window)


def reference_pair_survives(q1, q2, c, p, w, scale):
    def reproduced(window1, window2):
        return any(
            c + scale * a == q1 and c + scale * b == q2
            for k1 in window1
            for k2 in window2
            for a, b in [_bm_pair(math.ldexp(k1, -p), math.ldexp(k2, -p), math)]
        )

    n1, n2 = (q1 - c) / scale, (q2 - c) / scale
    if n1 == 0.0 and n2 == 0.0:
        return reproduced(range(1), range(1))
    u1, u2 = invert_box_muller(n1, n2)
    if reproduced(grid_window(u1, p, w), grid_window(u2, p, w)):
        return True
    # the second search, over the window widened by the grid steps that
    # rounding the queries to their ulps can move u1 and u2
    r = math.hypot(n1, n2)
    if math.isinf(r):
        return False
    e = (math.ulp(q1) + math.ulp(q2)) / (2.0 * scale)
    t1 = e * (r * math.exp(-0.5 * r * r)) * 2.0**p
    t2 = e / (2.0 * math.pi * r) * 2.0**p
    if (t1 < 1.0) == (t2 < 1.0):
        return False
    w1, w2 = w + math.ceil(t1), w + math.ceil(t2)
    return (2 * w1 + 1) * (2 * w2 + 1) > MAX_CHECK_EVALUATIONS or reproduced(
        grid_window(u1, p, w1), grid_window(u2, p, w2))


class TestNearestFirst:
    """The survival checks' window order: the clamped window's numerators, nearest first."""

    @pytest.mark.parametrize("m,p,w,expected", [
        (5, 4, 2, [5, 4, 6, 3, 7]),
        (5, 4, 0, [5]),
        (0, 4, 2, [0, 1, 2]),
        (15, 4, 2, [15, 14, 13]),
        (1, 4, 3, [1, 0, 2, 3, 4]),
        (0, 1, 2, [0, 1]),
        (1, 1, 2, [1, 0]),
        (2, 2, 100, [2, 1, 3, 0]),
        (2**53 - 1, 53, 2, [2**53 - 1, 2**53 - 2, 2**53 - 3]),
    ])
    def test_examples(self, m, p, w, expected):
        assert list(_nearest_first(m, p, w)) == expected

    @given(st.data())
    def test_same_numerators_nearest_first(self, data):
        p = data.draw(st.integers(min_value=1, max_value=53), label="p")
        m = data.draw(st.integers(min_value=0, max_value=(1 << p) - 1), label="m")
        w = data.draw(st.integers(min_value=0, max_value=40), label="w")
        order = list(_nearest_first(m, p, w))
        # sorted() is stable, so among equal distances m - d comes before m + d
        window = range(max(0, m - w), min((1 << p) - 1, m + w) + 1)
        assert order == sorted(window, key=lambda k: abs(k - m))

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.375])
    @pytest.mark.parametrize("p", [8, 53])
    def test_true_candidate_check_evaluates_one_point(self, target, p, monkeypatch):
        # whenever q - target gives the draw back exactly, the implied
        # uniform rounds to the draw's own numerator, the first one visited
        evaluations = []

        def counted(m, p, lm):
            evaluations.append(m)
            return _naive_laplace(m, p, lm)

        monkeypatch.setattr(attack, "_naive_laplace", counted)
        draw = get_method("naive-laplace").make_drawer(BitSource(seed=9400), p)
        checked = 0
        for _ in range(500):
            x = draw()
            q = target + x
            if q - target != x:
                continue
            evaluations.clear()
            assert _laplace_survives(q, target, p, DEFAULT_WINDOW, 1.0)
            assert len(evaluations) == 1
            checked += 1
        assert checked >= 250

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.375])
    @pytest.mark.parametrize("p", [20, 53])
    def test_true_pair_near_the_centre_evaluates_at_most_five_points(
        self, target, p, monkeypatch
    ):
        # The centre (m1, m2) and its four edge neighbours come first.  Every
        # grid point evaluated multiplies its radius by its angle's cosine
        # once, so a cosine that counts its reflected products counts points.
        evaluations = []

        class Cosine(float):
            def __rmul__(self, radius):
                evaluations.append(radius)
                return float.__rmul__(self, radius)

        counted = types.SimpleNamespace(**vars(math))
        counted.cos = lambda x: Cosine(math.cos(x))
        monkeypatch.setattr(attack, "math", counted)
        rng = random.Random(9410)
        checked = off_centre = 0
        for _ in range(400):
            # m1 >= 1: the zero radius takes the exact (0, 0) branch
            m1, m2 = rng.randrange(1, 1 << p), rng.randrange(1 << p)
            n1, n2 = stream_pair(m1, m2, p)
            q1, q2 = target + n1, target + n2
            u1, u2 = invert_box_muller(q1 - target, q2 - target)
            d = abs(grid_round(u1, p) - m1) + abs(grid_round(u2, p) - m2)
            if d > 1:
                continue
            evaluations.clear()
            assert _pair_survives(q1, q2, target, p, DEFAULT_PAIR_WINDOW, 1.0)
            assert 1 <= len(evaluations) <= 5
            checked += 1
            off_centre += d
        assert checked >= 300
        if target != 0.0 and p == 53:
            # adding the target rounds the noise, so the implied grid pair
            # is often a neighbour of the true one
            assert off_centre >= 20


class TestSurvivalChecksAgainstVariateReference:
    """The integer-numerator survival checks agree with the variate formulation.

    Queries come either from the assumed sampler at a true candidate or
    from anywhere; the candidate checked is the true one, a nearby offset
    or an arbitrary finite value, so both survivals and eliminations occur.
    """

    @staticmethod
    def _campaign(data):
        p = data.draw(st.integers(min_value=1, max_value=53), label="p")
        w = data.draw(st.integers(min_value=0, max_value=4), label="w")
        scale = data.draw(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), label="scale"
        )
        true_c = data.draw(finite, label="true_c")
        c = data.draw(
            st.one_of(
                st.just(true_c),
                st.floats(min_value=-4.0, max_value=4.0).map(lambda d: true_c + d),
                finite,
            ),
            label="c",
        )
        grid = st.integers(min_value=0, max_value=(1 << p) - 1)
        return p, w, scale, true_c, c, grid

    @given(st.data())
    @settings(max_examples=400)
    def test_laplace(self, data):
        p, w, scale, true_c, c, grid = self._campaign(data)
        modelled = grid.map(lambda m: scale * naive_output(m, p) + true_c)
        q = data.draw(st.one_of(modelled, finite), label="q")
        assume(math.isfinite(q) and math.isfinite(c))
        assert _laplace_survives(q, c, p, w, scale) == reference_laplace_survives(
            q, c, p, w, scale
        )

    @given(st.data())
    @settings(max_examples=400)
    def test_pair(self, data):
        p, w, scale, true_c, c, grid = self._campaign(data)
        m1, m2 = data.draw(grid, label="m1"), data.draw(grid, label="m2")
        n1, n2 = stream_pair(m1, m2, p)
        q1, q2 = data.draw(
            st.one_of(
                st.just((true_c + scale * n1, true_c + scale * n2)),
                st.tuples(finite, finite),
            ),
            label="q",
        )
        assume(math.isfinite(q1) and math.isfinite(q2) and math.isfinite(c))
        assert _pair_survives(q1, q2, c, p, w, scale) == reference_pair_survives(
            q1, q2, c, p, w, scale
        )

    @pytest.mark.parametrize("w", [0, 1, 4])
    @pytest.mark.parametrize("p", [8, 53])
    @pytest.mark.parametrize("at1", ["low", "middle", "top"])
    @pytest.mark.parametrize("at2", ["low", "middle", "top"])
    def test_pair_off_centre_offsets(self, at1, at2, p, w):
        # Queries from each grid pair of the 5x5 block around (m1, m2) but
        # the centre, with the grid's edges among the m: the pair check
        # agrees with the reference whether the query's grid pair is the
        # centre it rounds to or not, and, with the window forced onto
        # (m1, m2), finds the pair exactly when some point of that window
        # reproduces the query, whatever the point's place in the order.
        top = (1 << p) - 1
        place = {"low": 0, "middle": 3 << (p - 2), "top": top}
        m1, m2 = place[at1], place[at2]
        for d1 in range(-2, 3):
            for d2 in range(-2, 3):
                k1, k2 = m1 + d1, m2 + d2
                if (d1, d2) == (0, 0) or not (0 <= k1 <= top and 0 <= k2 <= top):
                    continue
                n1, n2 = stream_pair(k1, k2, p)
                for true_c, c in [(0.0, 0.0), (0.75, 0.75), (0.0, 1.0), (0.75, 0.75 + 2**-30)]:
                    q1, q2 = true_c + n1, true_c + n2
                    assert _pair_survives(q1, q2, c, p, w, 1.0) == reference_pair_survives(
                        q1, q2, c, p, w, 1.0)
                    window1 = range(max(0, m1 - w), min(top, m1 + w) + 1)
                    window2 = range(max(0, m2 - w), min(top, m2 + w) + 1)
                    assert _pair_matches(q1, q2, c, p, 1.0, m1, w, m2, w) == any(
                        c + a == q1 and c + b == q2
                        for j1 in window1
                        for j2 in window2
                        for a, b in [_bm_pair(math.ldexp(j1, -p), math.ldexp(j2, -p), math)]
                    )


class TestTrueCandidateSurvives:
    """The target behind a query built by the assumed sampler is never eliminated.

    Any precision, any finite target, any positive finite scale and any grid
    numerators, at the default windows; only queries that overflow are
    skipped.
    """

    @staticmethod
    def _setting(data):
        p = data.draw(st.integers(min_value=1, max_value=53), label="p")
        c = data.draw(finite, label="c")
        scale = data.draw(
            st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), label="scale"
        )
        return p, c, scale, st.integers(min_value=0, max_value=(1 << p) - 1)

    @given(st.data())
    @settings(max_examples=500)
    def test_laplace(self, data):
        p, c, scale, grid = self._setting(data)
        q = c + scale * naive_output(data.draw(grid, label="m"), p)
        assume(math.isfinite(q))
        assert _laplace_survives(q, c, p, DEFAULT_WINDOW, scale)

    @given(st.data())
    @settings(max_examples=500)
    def test_pair(self, data):
        p, c, scale, grid = self._setting(data)
        n1, n2 = stream_pair(data.draw(grid, label="m1"), data.draw(grid, label="m2"), p)
        q1, q2 = c + scale * n1, c + scale * n2
        assume(math.isfinite(q1) and math.isfinite(q2))
        assert _pair_survives(q1, q2, c, p, DEFAULT_PAIR_WINDOW, scale)

    # |c| far above scale * |noise|: (q - c) / scale keeps only some of the
    # noise's bits, and the recovered angle rounds outside the default window,
    # 5 grid steps from m2 in the first case and 24 in the second.  The first
    # is kept because its widened window is past the cap; the widened search
    # finds the second.
    @pytest.mark.parametrize("p,c,scale,m1,m2", [
        (48, 1.8014398509481988e16, 2.554080168852785e16, 48, 12953543832023),
        (25, -6.125444259775927e291, 9.380297708467484e283, 3, 22503124),
    ])
    def test_pair_far_from_zero(self, p, c, scale, m1, m2):
        n1, n2 = stream_pair(m1, m2, p)
        q1, q2 = c + scale * n1, c + scale * n2
        assert _pair_survives(q1, q2, c, p, DEFAULT_PAIR_WINDOW, scale)


class TestExactZeroPair:
    """The exact (0, 0) noise pair, a branch of the pair check Hypothesis rarely reaches.

    Only the zero-radius grid point (``m1 = 0``) gives zero noise; its radius
    is ``sqrt(-0.0) = -0.0``, so both halves are ``-0.0`` times a cosine or
    sine, at any angle.
    """

    @pytest.mark.parametrize("p", [1, 8, 53])
    @pytest.mark.parametrize("scale", [1.0, 0.25])
    @pytest.mark.parametrize("c", [0.0, 1.0, -3.5])
    def test_zero_radius_pair(self, c, scale, p):
        for m2 in (0, 1, (1 << p) - 1):
            n1, n2 = stream_pair(0, m2, p)
            q1, q2 = c + scale * n1, c + scale * n2
            assert (q1 - c) / scale == 0.0 == (q2 - c) / scale
            assert _pair_survives(q1, q2, c, p, DEFAULT_PAIR_WINDOW, scale)
            # a wrong candidate sees noise (-10/scale, -10/scale), of radius
            # past sqrt(2 * 53 ln 2), the largest any grid pair reaches
            assert not _pair_survives(q1, q2, c + 10.0, p, DEFAULT_PAIR_WINDOW, scale)
            for cand in (c, c + 10.0):
                assert _pair_survives(q1, q2, cand, p, DEFAULT_PAIR_WINDOW, scale) == (
                    reference_pair_survives(q1, q2, cand, p, DEFAULT_PAIR_WINDOW, scale))

    @pytest.mark.parametrize("scale", [1.0, 0.25])
    @pytest.mark.parametrize("q1,q2,c", [
        (-0.0, 0.0, 0.0), (0.0, -0.0, 0.0), (-0.0, -0.0, 0.0), (0.0, 0.0, -0.0),
        (-0.0, -0.0, -0.0),
    ])
    def test_signed_zero_queries(self, q1, q2, c, scale):
        assert _pair_survives(q1, q2, c, 53, DEFAULT_PAIR_WINDOW, scale)
        assert reference_pair_survives(q1, q2, c, 53, DEFAULT_PAIR_WINDOW, scale)

    def test_underflowed_noise_is_eliminated(self):
        # (q1 - c) / scale underflows to 0.0, yet c + scale * (-0.0) is 0.0, not q1
        q1, q2, c, scale = 5e-324, 0.0, 0.0, 4.0
        assert (q1 - c) / scale == 0.0
        assert not _pair_survives(q1, q2, c, 53, DEFAULT_PAIR_WINDOW, scale)
        assert not reference_pair_survives(q1, q2, c, 53, DEFAULT_PAIR_WINDOW, scale)


class TestReach:
    """Identification needs a target that is small next to the noise scale.

    Far from zero, ``q = target + noise`` rounds away the noise's low bits,
    so grid points near either candidate reproduce every query and the
    campaign runs out of budget; the true target is still never eliminated.
    Forty seeded campaigns of 100 queries per setting, candidates
    ``{target, target + 1}``, at scale 1 and p = 53.
    """

    @pytest.mark.parametrize("kind,target,identified", [
        ("mironov", 1e2, 29), ("mironov", 1e4, 0), ("mironov", 1e6, 0),
        ("pair", 1e2, 16), ("pair", 1e4, 0), ("pair", 1e6, 0),
    ])
    def test_true_target_never_eliminated(self, kind, target, identified):
        statuses = []
        for seed in range(40):
            src = BitSource(seed=seed)
            if kind == "mironov":
                oracle = QueryOracle(target, get_method("naive-laplace").make_drawer(src))
                out = mironov_attack(oracle, [target, target + 1.0])
            else:
                stream = GaussianStream(src)
                oracle = QueryOracle(target, stream.next, stream=stream)
                out = gaussian_pair_attack(oracle, [target, target + 1.0])
            assert all(target not in gone for _, gone in out.trace)
            assert out.queries_used == 100
            statuses.append((out.status, out.value))
        assert statuses.count(("identified", target)) == identified
        assert statuses.count(("budget_exhausted", None)) == 40 - identified


class TestCountFeasible:
    def test_example_values(self):
        assert count_feasible_checks(0.0, 8) == 256
        assert count_feasible_checks(1.0, 16) == 39749

    @pytest.mark.parametrize("n1,p", [(0.5, 8), (1.0, 10), (2.0, 8), (0.1, 12)])
    def test_against_grid_enumeration(self, n1, p):
        lower = 1.0 - math.exp(-0.5 * n1 * n1)
        by_enumeration = sum(
            1 for m in range(1 << p) if math.ldexp(m, -p) >= lower
        )
        assert count_feasible_checks(n1, p) == by_enumeration

    def test_sign_symmetric(self):
        assert count_feasible_checks(1.5, 12) == count_feasible_checks(-1.5, 12)

    @given(
        st.floats(min_value=0.0, max_value=6.0),
        st.floats(min_value=0.0, max_value=6.0),
    )
    def test_shrinks_with_magnitude(self, a, b):
        lo, hi = sorted((a, b))
        assert count_feasible_checks(hi, 10) <= count_feasible_checks(lo, 10)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            count_feasible_checks(math.inf, 8)

    def test_rejects_bad_precision(self):
        with pytest.raises(ValueError):
            count_feasible_checks(1.0, 0)


class TestExpectedChecks:
    def test_closed_form(self):
        assert expected_checks(53) == 2.0**52.5
        assert expected_checks(12) == 2.0**11.5

    def test_quadruples_every_two_bits(self):
        for p in (8, 12, 16, 40):
            assert expected_checks(p + 2) / expected_checks(p) == 4.0

    def test_matches_average_feasible_count(self):
        # Monte Carlo over standard normal outputs at p = 12
        rng = np.random.default_rng(4242)
        draws = rng.standard_normal(20_000)
        mean = float(np.mean([count_feasible_checks(x, 12) for x in draws]))
        assert abs(mean / expected_checks(12) - 1.0) < 0.02


class TestBruteForce:
    def test_recovers_planted_pair(self):
        p = 12
        n1 = stream_pair(2500, 600, p)[0]
        result = brute_force_single_gaussian(n1, p)
        assert (2500, 600) in result.pairs
        for m1, m2 in result.pairs:
            assert type(m1) is int and type(m2) is int
            assert stream_pair(m1, m2, p)[0] == n1

    def test_random_plants_all_recovered(self):
        p = 12
        rng = random.Random(31337)
        plants = [(rng.randrange(1, 1 << p), rng.randrange(0, 1 << p)) for _ in range(25)]
        # m2 = 0 and m2 = 2**(p-1) give n1 = r and n1 = -r: n1 / r is exactly ±1
        plants += [(m1, m2) for m1 in (1, 2500, (1 << p) - 1) for m2 in (0, 1 << (p - 1))]
        for m1, m2 in plants:
            n1 = stream_pair(m1, m2, p)[0]
            assert (m1, m2) in brute_force_single_gaussian(n1, p).pairs

    def test_just_beyond_the_radius_finds_nothing_there(self):
        # one ulp above the radius of m1: no angle at that m1 reaches it
        p, m1 = 12, 2500
        n1 = math.nextafter(_bm_radius(math.ldexp(m1, -p), math), math.inf)
        result = brute_force_single_gaussian(n1, p)
        assert result.checks >= (1 << p) - m1  # the search did reach m1
        assert all(a != m1 for a, _ in result.pairs)

    def test_check_count_tracks_feasible_window(self):
        # a window of w pads the u1 walk by exactly w rows per search
        p = 12
        n1 = stream_pair(2500, 600, p)[0]
        for w in (0, 2):
            result = brute_force_single_gaussian(n1, p, w)
            assert result.checks == count_feasible_checks(n1, p) + w

    @pytest.mark.parametrize("p", range(1, 15))
    def test_checks_are_feasible_rows_plus_window(self, p):
        # checks counts the feasible rows plus w rows below the analytic
        # edge, capped at the grid, whatever the target: 0.0 (every row), a
        # radius and its negation (t = ±1 at its row), and 1e300 (no row's)
        size = 1 << p
        r = _bm_radius(math.ldexp(size >> 1, -p), math)
        for n1 in (0.0, r, -r, 1e300):
            for w in (0, 2, 5, size):
                if size * min(2 * (2 * w + 1), size) > MAX_SEARCH_POINTS:
                    # w = 2**p at p = 14: past the cap, rejected before searching
                    with pytest.raises(ValueError, match="too large"):
                        brute_force_single_gaussian(n1, p, w)
                    continue
                checks = brute_force_single_gaussian(n1, p, w).checks
                assert checks == min(size, count_feasible_checks(n1, p) + w), (n1, p, w)

    @pytest.mark.parametrize("p", [1, 2, 8])
    def test_zero_output_case(self, p):
        # only the zero radius reaches ±0.0: every angle with u1 = 0, nothing else
        for zero in (0.0, -0.0):
            result = brute_force_single_gaussian(zero, p)
            assert result.checks == 2**p
            assert result.pairs == [(0, m2) for m2 in range(2**p)]

    def test_unreachable_output_finds_nothing(self):
        # 12.0 needs u1 so close to 1 that no p=8 grid point reaches it
        result = brute_force_single_gaussian(12.0, 8)
        assert result.pairs == []
        # the largest double over the smallest radii overflows n1 / r to inf,
        # which no row reaches either, and without a warning
        assert brute_force_single_gaussian(sys.float_info.max, 13, 10**6).pairs == []

    def test_result_type(self):
        assert isinstance(brute_force_single_gaussian(1.0, 6), BruteForceResult)

    def test_precision_guard(self):
        with pytest.raises(ValueError):
            brute_force_single_gaussian(1.0, BRUTE_FORCE_MAX_PRECISION + 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            brute_force_single_gaussian(bad, 8)

    def test_rejects_negative_window(self):
        # and a window that is not an int: a float, or a bool standing for 1
        for w in (-1, 2.5, True):
            with pytest.raises(ValueError):
                brute_force_single_gaussian(1.0, 8, w=w)

    def test_huge_window_clamped_to_grid(self):
        # a window of 2**p already covers the whole grid; a wider one must
        # return the same result without walking the extra numerators
        rng = random.Random(4242)
        for n1 in (_bm_pair(rng.random(), rng.random(), math)[0] for _ in range(5)):
            full = brute_force_single_gaussian(n1, 8, w=256)
            huge = brute_force_single_gaussian(n1, 8, w=10**12)
            assert huge.pairs == full.pairs
            assert huge.checks == full.checks

    def test_checks_scale_with_precision(self):
        # each added bit of precision roughly doubles the examined window
        rng = random.Random(777)
        n1 = _bm_pair(rng.random(), rng.random(), math)[0]
        c10 = brute_force_single_gaussian(n1, 10).checks
        c12 = brute_force_single_gaussian(n1, 12).checks
        assert 3.6 < c12 / c10 < 4.4


def brute_force_targets(p, rng, plants=3, draws=2):
    """Outputs that stress the search's edges at precision ``p``.

    Planted pairs (with ``m2`` at 0 and ``2**(p-1)``, where ``n1 / r`` is
    exactly ±1) and their negations, a radius, its negation and the next
    double above it, both zeros, and standard normal draws.
    """
    size = 1 << p
    m1s = [rng.randrange(1, size) for _ in range(plants + 2)]
    m2s = [rng.randrange(0, size) for _ in range(plants)] + [0, size >> 1]
    planted = [stream_pair(a, b, p)[0] for a, b in zip(m1s, m2s)]
    r = _bm_radius(math.ldexp(rng.randrange(1, size), -p), math)
    return ([x for n1 in planted for x in (n1, -n1)] + [r, -r, math.nextafter(r, math.inf), 0.0, -0.0]
            + [rng.gauss(0.0, 1.0) for _ in range(draws)])


class TestBruteForceMatchesReference:
    """The cosine-table search returns what the per-angle scalar search returned."""

    @pytest.mark.parametrize("p", range(1, 15))
    def test_pairs_and_checks_match(self, p):
        windows = (0, 1, 2, 5, 2**p, 10**9) if p <= 8 else (0, 2, 5)
        # fewer targets above p = 11 keep the class near 7 s; a wider sweep
        # is a matter of raising both counts
        plants, draws = (1, 1) if p > 11 else (3, 2)
        for n1 in brute_force_targets(p, random.Random(p), plants, draws):
            for w in windows:
                got = brute_force_single_gaussian(n1, p, w)
                want = reference_brute_force(n1, p, w)
                assert got.pairs == want.pairs, (n1, p, w)
                assert got.checks == want.checks, (n1, p, w)

    @settings(max_examples=80, deadline=None)
    @given(p=st.integers(1, 10), w=st.integers(0, 6), a=st.integers(0, 1023),
           b=st.integers(0, 1023), negate=st.booleans())
    def test_planted_outputs_match(self, p, w, a, b, negate):
        m1, m2 = a >> (10 - p), b >> (10 - p)
        n1 = stream_pair(m1, m2, p)[0]
        n1 = -n1 if negate else n1
        got = brute_force_single_gaussian(n1, p, w)
        want = reference_brute_force(n1, p, w)
        assert (got.pairs, got.checks) == (want.pairs, want.checks)


class TestBruteForceBlocks:
    """The block edges of the search's numpy filter, against the reference.

    ``_BLOCK_POINTS`` counts the angles a block gathers, ``2(2w + 1)`` per
    row.  Each case sets it to hold ``rows`` rows at its window; for one
    row it is set to one point, less than a row, which still takes a row
    per block.
    """

    @staticmethod
    def set_rows(monkeypatch, rows, w):
        points = 1 if rows == 1 else rows * 2 * (2 * w + 1)
        monkeypatch.setattr(attack, "_BLOCK_POINTS", points)

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    def test_matches_reference(self, rows, monkeypatch):
        edges = set()  # where in its block each pair's row fell
        for p in range(6, 11):
            size = 1 << p
            rng = random.Random(p)
            # plus a pair planted on the last row, which ends the last block
            last_row = stream_pair(size - 1, rng.randrange(size), p)[0]
            targets = brute_force_targets(p, rng) + [last_row]
            for w in (0, 2):
                self.set_rows(monkeypatch, rows, w)
                for n1 in targets:
                    got = brute_force_single_gaussian(n1, p, w)
                    want = reference_brute_force(n1, p, w)
                    assert (got.pairs, got.checks) == (want.pairs, want.checks), (n1, p, w)
                    first = max(1, size - got.checks)  # the first block's first row
                    short = (size - first) % rows != 0
                    for m1 in {m1 for m1, _ in got.pairs if m1 > 0}:
                        k = (m1 - first) % rows
                        edges.add("first" if k == 0 else "last" if k == rows - 1 else "inner")
                        if short and m1 - k + rows > size:
                            edges.add("short")
        if rows > 1:
            assert {"first", "last", "short"} <= edges, edges

    @pytest.mark.parametrize("p", [15, 16])
    def test_planted_at_large_p(self, p, monkeypatch):
        self.set_rows(monkeypatch, 7, DEFAULT_WINDOW)
        size = 1 << p
        rng = random.Random(p)
        for m1, m2 in ((rng.randrange(1, size), rng.randrange(size)), (size - 1, 0)):
            n1 = stream_pair(m1, m2, p)[0]
            got = brute_force_single_gaussian(n1, p)
            want = reference_brute_force(n1, p, DEFAULT_WINDOW)
            assert (m1, m2) in got.pairs
            assert (got.pairs, got.checks) == (want.pairs, want.checks), (m1, m2)


class TestBruteForceMemory:
    def test_bounded_by_the_block(self):
        # Beyond its table of 2**p cosines (512 KiB at p = 16), a search holds
        # one block's arrays, about 100 KiB at any p, and no per-row array.
        p = 16
        n1 = stream_pair(40000, 1234, p)[0]
        tracemalloc.start()
        try:
            result = brute_force_single_gaussian(n1, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (40000, 1234) in result.pairs
        assert peak < 8 * (1 << p) + 256 * 1024


def branch_centres(n1, p, m1):
    """The grid numerators ``(c1, c2)`` that row ``m1`` rounds both arccos branches to."""
    u = math.acos(n1 / _bm_radius(math.ldexp(m1, -p), math)) / TWO_PI
    return round(math.ldexp(u, p)), round(math.ldexp(1.0 - u, p))


class TestBruteForceWindowGeometry:
    """Branch-window layouts at the edges of the two-slice scan, against the reference.

    Each case names a row ``m1`` and checks first that the search reaches
    it and that the row really has the layout under test.
    """

    P = 6

    def assert_matches_at(self, n1, p, w, m1):
        got = brute_force_single_gaussian(n1, p, w)
        assert got.checks >= (1 << p) - m1  # the search reached row m1
        want = reference_brute_force(n1, p, w)
        assert (got.pairs, got.checks) == (want.pairs, want.checks), (n1, p, w)

    @pytest.mark.parametrize("extra", [1, 2])
    def test_windows_touch_or_split(self, extra):
        # c2 - c1 == 2w + 1: the windows touch, sharing no angle and leaving
        # none out; 2w + 2: one angle between them is not scanned.  Planted
        # outputs give even gaps; an odd gap needs u * 2**p near a rounding
        # tie, so outputs a few ulps from a tie between grid angles are tried.
        p = self.P
        size = 1 << p
        seen = set()  # (m1, c1, c2): each row's layout once, planted first
        for m1 in (1, 13, 40, size - 1):
            r = _bm_radius(math.ldexp(m1, -p), math)
            targets = [r * math.cos(TWO_PI * math.ldexp(m2, -p)) for m2 in range(size)]
            for k in range(size):
                x = y = r * math.cos(TWO_PI * math.ldexp(2 * k + 1, -p - 1))
                for _ in range(3):
                    x, y = math.nextafter(x, math.inf), math.nextafter(y, -math.inf)
                    targets += [x, y]
            for n1 in targets:
                if abs(n1) > r:
                    continue
                c1, c2 = branch_centres(n1, p, m1)
                gap = c2 - c1 - extra
                if gap >= 0 and gap % 2 == 0 and (m1, c1, c2) not in seen:
                    self.assert_matches_at(n1, p, gap // 2, m1)
                    seen.add((m1, c1, c2))
        assert len(seen) >= 20

    @pytest.mark.parametrize("p", [4, 6])
    def test_window_runs_past_the_grid_end(self, p):
        # w >= size/2: the window around c1 ends past the last grid angle
        size = 1 << p
        for n1 in brute_force_targets(p, random.Random(p)):
            for w in (size // 2, size // 2 + 1, size - 1):
                got = brute_force_single_gaussian(n1, p, w)
                want = reference_brute_force(n1, p, w)
                assert (got.pairs, got.checks) == (want.pairs, want.checks), (n1, p, w)

    def test_low_clamp(self):
        # an output near the radius puts c1 at or below w, so the window
        # around it starts at angle 0
        p = self.P
        for m1 in (1, 30, 63):
            for w in (1, 2, 5):
                for m2 in range(w + 1):
                    n1 = stream_pair(m1, m2, p)[0]
                    assert branch_centres(n1, p, m1)[0] <= w
                    self.assert_matches_at(n1, p, w, m1)
                    assert (m1, m2) in brute_force_single_gaussian(n1, p, w).pairs

    def test_output_at_plus_or_minus_the_radius(self):
        # m2 = 0 and 2**(p-1): n1 / r is exactly 1 and -1, so the branch
        # centres are 0 and 2**p, or both 2**(p-1)
        p = self.P
        size = 1 << p
        for m1 in (1, 30, 63):
            r = _bm_radius(math.ldexp(m1, -p), math)
            for m2, t, centres in ((0, 1.0, (0, size)), (size >> 1, -1.0, (size >> 1, size >> 1))):
                n1 = stream_pair(m1, m2, p)[0]
                assert n1 / r == t
                assert branch_centres(n1, p, m1) == centres
                for w in (0, 1, 2, 5):
                    self.assert_matches_at(n1, p, w, m1)


class TestExactScaledIntegers:
    """The exact identities the search builds its angles and radii from."""

    @pytest.mark.parametrize("p", range(1, BRUTE_FORCE_MAX_PRECISION + 1))
    def test_identities(self, p):
        # every numerator up to p = 12, and 2,000 sampled ones (and the
        # edges) above
        size = 1 << p
        step = 2.0**-p
        ms = (range(size) if p <= 12
              else [0, 1, size >> 1, size - 1, *random.Random(p).sample(range(size), 2000)])
        for m in ms:
            assert (TWO_PI * step) * m == TWO_PI * math.ldexp(m, -p)
            assert (size - m) * step == 1.0 - math.ldexp(m, -p)


class TestSearchCap:
    """A search of more than MAX_SEARCH_POINTS grid points is rejected up front."""

    # n1 = 1e300 is beyond every radius, so an admitted search skips each row
    FAR = 1e300

    @pytest.mark.parametrize("p,largest", [(14, 1023), (20, 15)])
    def test_largest_admitted_window(self, p, largest):
        # each of the 2**p rows scans min(2(2w+1), 2**p) angles
        assert (1 << p) * 2 * (2 * largest + 1) <= MAX_SEARCH_POINTS
        assert (1 << p) * 2 * (2 * largest + 3) > MAX_SEARCH_POINTS
        assert brute_force_single_gaussian(self.FAR, p, largest).pairs == []
        with pytest.raises(ValueError, match="too large"):
            brute_force_single_gaussian(self.FAR, p, largest + 1)

    def test_any_window_up_to_p13(self):
        # a window as wide as the grid is 2**(2p) points: 2**26 at p = 13
        assert brute_force_single_gaussian(self.FAR, 13, 10**12).checks == 1 << 13
        with pytest.raises(ValueError, match="too large"):
            brute_force_single_gaussian(self.FAR, 14, 10**12)


class TestDefaults:
    def test_window_constants(self):
        assert DEFAULT_WINDOW == 2
        assert DEFAULT_PAIR_WINDOW == 4
        assert BRUTE_FORCE_MAX_PRECISION == 20

    @pytest.mark.parametrize("attack,arity,largest", [
        (mironov_attack, 1, 32_767), (gaussian_pair_attack, 2, 127)])
    def test_window_cap(self, attack, arity, largest):
        # a survival check evaluates (2w+1)**arity grid points
        assert (2 * largest + 1) ** arity <= MAX_CHECK_EVALUATIONS < (2 * largest + 3) ** arity
        oracle = QueryOracle(0.0, lambda: 0.0)
        out = attack(oracle, [0.0, 1.0], w=largest, max_queries=0)
        assert out.status == "budget_exhausted"
        with pytest.raises(ValueError, match="too large"):
            attack(oracle, [0.0, 1.0], w=largest + 1, max_queries=0)
        assert oracle.call_count == 0

    def test_outcome_dataclass_defaults(self):
        out = AttackOutcome("identified", 1.0, 3)
        assert out.trace == []
        assert out.survival_checks == 0
