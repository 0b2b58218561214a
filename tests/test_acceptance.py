"""Acceptance suite: the nine headline guarantees, one test each.

Every test prints a single ``[acceptance N] PASS/FAIL`` line (shown with
``pytest -s``, and in the captured output on failure) and then asserts.
All runs are seeded; sample sizes and tolerances are stated inline.

Run:  pytest tests/test_acceptance.py -s
"""

import math
import time

import numpy as np

from divsamp.attack import (
    QueryOracle,
    _laplace_survives,
    brute_force_single_gaussian,
    count_feasible_checks,
    expected_checks,
    gaussian_pair_attack,
    invert_box_muller,
    mironov_attack,
)
from divsamp.dist import gaussian_cdf, laplace_cdf
from divsamp.sampler import (
    GaussianStream,
    bm_cos,
    bm_sin,
    get_method,
)
from divsamp.stats import distinct_output_count, ks_critical_value, ks_statistic
from divsamp.urand import BitSource, next_uniform

CAMPAIGNS = 1000
BUDGET = 100
CANDS = [0.0, 1.0]


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'} — {detail}")


def _mironov_campaign(seed: int, target: float, noise) -> bool:
    src = BitSource(seed=seed)
    oracle = QueryOracle(target, noise(src))
    out = mironov_attack(oracle, CANDS, max_queries=BUDGET)
    return out.status == "identified" and out.value == target


def test_01_mironov_identifies_naive_laplace_target():
    # >= 99% identification over 1000 seeded campaigns, 100 queries each
    t0 = time.perf_counter()
    hits = sum(
        _mironov_campaign(10_000 + k, float(k % 2),
                          get_method("naive-laplace").make_drawer)
        for k in range(CAMPAIGNS)
    )
    elapsed = time.perf_counter() - t0
    ok = hits >= 990 and elapsed < 60.0
    _report(1, ok, f"identified {hits}/{CAMPAIGNS}, {elapsed:.1f}s (need >=990, <60s)")
    assert hits >= 990
    assert elapsed < 60.0


def test_02_pair_attack_beats_raw_stream_but_not_sums():
    hits = 0
    for k in range(CAMPAIGNS):
        target = float(k % 2)
        stream = GaussianStream(BitSource(seed=600_000 + k))
        oracle = QueryOracle(target, stream.next, stream=stream)
        out = gaussian_pair_attack(oracle, CANDS, max_queries=BUDGET)
        if out.status == "identified" and out.value == target:
            hits += 1

    # the two-fold average (N1 + N2)/sqrt(2) and the n = 2 hardened form
    defended = {"avg2": 0, "secure_n2": 0}
    avg2, secure_n2 = get_method("secure-gaussian", 1), get_method("secure-gaussian", 2)
    for k in range(CAMPAIGNS):
        oracle = QueryOracle(1.0, avg2.make_drawer(BitSource(seed=700_000 + k)))
        if gaussian_pair_attack(oracle, CANDS, max_queries=BUDGET).status == "identified":
            defended["avg2"] += 1
        oracle = QueryOracle(1.0, secure_n2.make_drawer(BitSource(seed=710_000 + k)))
        if gaussian_pair_attack(oracle, CANDS, max_queries=BUDGET).status == "identified":
            defended["secure_n2"] += 1

    ok = hits >= 990 and defended["avg2"] == 0 and defended["secure_n2"] == 0
    _report(2, ok,
            f"raw stream {hits}/{CAMPAIGNS} identified (need >=990); "
            f"2-fold average {defended['avg2']}, n=2 {defended['secure_n2']} (need 0)")
    assert hits >= 990
    assert defended == {"avg2": 0, "secure_n2": 0}


def test_03_divisible_laplace_samplers_defeat_mironov():
    method_seeds = {
        "laplace-logcos": 300_000,
        "laplace-sqsum": 310_000,
        "laplace-proddiff": 320_000,
    }
    identified = {}
    for name, base in method_seeds.items():
        method = get_method(name)
        count = 0
        for k in range(CAMPAIGNS):
            src = BitSource(seed=base + k)
            drawer = method.make_drawer(src)
            oracle = QueryOracle(float(k % 2), drawer)
            if mironov_attack(oracle, CANDS, max_queries=BUDGET).status == "identified":
                count += 1
        identified[name] = count
    ok = all(v == 0 for v in identified.values())
    _report(3, ok, f"identifications per sampler (need all 0): {identified}")
    assert identified == {name: 0 for name in method_seeds}


def test_04_window_two_never_drops_the_true_candidate():
    # 10^5 seeded round trips through the attack's survival check at W = 2
    noise = get_method("naive-laplace").make_drawer(BitSource(seed=424_242))
    target = 1.0
    misses = 0
    for _ in range(100_000):
        q = target + noise()
        if not _laplace_survives(q, target, 53, 2, 1.0):
            misses += 1
    ok = misses == 0
    _report(4, ok, f"false eliminations in 100000 round trips at W=2: {misses} (need 0)")
    assert misses == 0


def test_05_search_size_model_matches_measurement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(90_210)
    draws = rng.standard_normal(1_000_000)
    rel_errs = {}
    for p in (12, 16, 20):
        mean = float(np.mean([count_feasible_checks(x, p) for x in draws]))
        rel_errs[p] = abs(mean / expected_checks(p) - 1.0)

    stream = GaussianStream(BitSource(seed=31_337), 12)
    total = 0
    for _ in range(200):
        n1 = stream.next()
        stream.next()  # discard the sine half; the search inverts the cosine branch
        total += brute_force_single_gaussian(n1, 12).checks
    brute_err = abs((total / 200) / expected_checks(12) - 1.0)
    elapsed = time.perf_counter() - t0

    ok = all(e < 0.01 for e in rel_errs.values()) and brute_err < 0.10 and elapsed < 300.0
    _report(5, ok,
            "Monte Carlo rel err " +
            ", ".join(f"p={p}: {e:.2%}" for p, e in rel_errs.items()) +
            f" (need <1%); brute force at p=12: {brute_err:.2%} (need <10%); "
            f"{elapsed:.1f}s (need <300s)")
    for p, e in rel_errs.items():
        assert e < 0.01, f"p={p}: {e}"
    assert brute_err < 0.10
    assert elapsed < 300.0


def test_06_every_sampler_has_the_right_distribution():
    n = 100_000
    critical = ks_critical_value(n)
    failures = []
    details = []
    for idx, name in enumerate(
        ["naive-laplace", "laplace-expdiff", "laplace-sqsum", "laplace-proddiff",
         "laplace-logcos", "laplace-logcos-sym", "box-muller", "secure-gaussian"]
    ):
        method = get_method(name)
        xs = method.column(BitSource(seed=20_000 + idx), 53, n).tolist()
        cdf = laplace_cdf if method.family == "laplace" else gaussian_cdf
        stat = ks_statistic(xs, cdf)
        mean = sum(xs) / n
        var = sum((x - mean) ** 2 for x in xs) / (n - 1)
        lo, hi = (1.94, 2.06) if method.family == "laplace" else (0.97, 1.03)
        if not (stat < critical and lo <= var <= hi):
            failures.append(name)
        details.append(f"{name}: D={stat:.4f}, var={var:.3f}")
    ok = not failures
    _report(6, ok, f"KS at alpha=0.01 and variance bands over {n} draws; "
                   f"failures: {failures or 'none'}")
    assert not failures, details


def test_07_transform_identities_hold_to_four_ulps():
    # (N1^2 - N2^2)/2 against -log(1-U1) cos(4 pi U2), 10^4 pairs
    src = BitSource(seed=4004)
    worst_identity = 0.0
    for _ in range(10_000):
        u1 = next_uniform(src, 53).value
        u2 = next_uniform(src, 53).value
        n1 = bm_cos(u1, u2)
        n2 = bm_sin(u1, u2)
        lhs = 0.5 * (n1 * n1 - n2 * n2)
        rhs = -math.log(1.0 - u1) * math.cos(4.0 * math.pi * u2)
        scale = max(abs(lhs), abs(rhs), n1 * n1, n2 * n2)
        err = abs(lhs - rhs) / (4.0 * math.ulp(scale)) if scale else 0.0
        worst_identity = max(worst_identity, err)

    # pair inversion round trip, 10^4 pairs, 4 ulps at unit scale
    src = BitSource(seed=8086)
    tol = 4.0 * math.ulp(1.0)
    worst_rt = 0.0
    for _ in range(10_000):
        u1 = next_uniform(src, 53).value
        u2 = next_uniform(src, 53).value
        rec1, rec2 = invert_box_muller(bm_cos(u1, u2), bm_sin(u1, u2))
        worst_rt = max(worst_rt, abs(rec1 - u1) / tol, abs(rec2 - u2) / tol)

    ok = worst_identity <= 1.0 and worst_rt <= 1.0
    _report(7, ok, f"identity worst error {worst_identity:.2f} of the 4-ulp budget; "
                   f"round trip worst {worst_rt:.2f} (need <=1 each)")
    assert worst_identity <= 1.0
    assert worst_rt <= 1.0


def test_08_output_space_gap_at_low_precision():
    draws = 1_000_000
    naive = distinct_output_count(get_method("naive-laplace"), 8, draws, BitSource(seed=123))
    hardened = distinct_output_count(get_method("laplace-logcos"), 8, draws, BitSource(seed=123))
    ok = naive <= 256 and hardened > 256
    _report(8, ok, f"distinct outputs in 10^6 draws at p=8: "
                   f"naive {naive} (need <=256), log-cosine {hardened} (need >256)")
    assert naive <= 256
    assert hardened > 256


def test_09_hardening_cost_stays_linear():
    orders = (1, 2, 4, 8)
    for n in orders:
        src = BitSource(seed=50_000 + n)
        draw = get_method("secure-gaussian", n).make_drawer(src)
        for _ in range(25):
            draw()
        assert src.uniforms_drawn == 25 * 2 * n, f"n={n} consumed {src.uniforms_drawn}"

    draws = 4000
    times = {}
    for n in orders:
        draw = get_method("secure-gaussian", n).make_drawer(BitSource(seed=51_000 + n))
        t0 = time.perf_counter()
        for _ in range(draws):
            draw()
        times[n] = time.perf_counter() - t0
    ratios = {n: times[n] / times[1] for n in orders[1:]}
    ok = all(ratios[n] < 2.0 * n for n in ratios)
    _report(9, ok,
            "uniforms per draw exactly 2n for n in {1,2,4,8}; time ratios vs n=1: " +
            ", ".join(f"n={n}: {r:.2f} (limit {2*n})" for n, r in ratios.items()))
    for n, r in ratios.items():
        assert r < 2.0 * n, f"n={n}: ratio {r}"
