"""
Drawing noise: every sampler, one screenful
===========================================

Walks the sampler registry, draws from each method with a fixed seed, and
summarizes the output distribution.  All methods target either the
standard Laplace (variance 2) or the standard Gaussian (variance 1), and
all of them should look indistinguishable *statistically* — the
differences that matter live in the floating-point fine structure, which
the other demos dig into.

Run:  python demos/01_sampling_basics.py
"""

from divsamp import (
    BitSource,
    gaussian_cdf,
    get_method,
    ks_critical_value,
    ks_statistic,
    laplace_cdf,
    method_names,
    moments,
)

N = 20_000

# --- one row per registered sampler -----------------------------------------
# KS statistic against the analytic CDF plus the first four moments; the
# critical value is the alpha = 0.01 acceptance line.

print(f"{'method':<20} {'family':<9} {'U/draw':>6} {'KS':>8} {'crit':>8} "
      f"{'mean':>8} {'var':>7} {'skew':>7} {'exkurt':>7}")
for i, name in enumerate(method_names()):
    method = get_method(name)
    draw = method.make_drawer(BitSource(seed=100 + i))
    xs = [draw() for _ in range(N)]
    cdf = laplace_cdf if method.family == "laplace" else gaussian_cdf
    stat = ks_statistic(xs, cdf)
    m = moments(xs)
    print(f"{name:<20} {method.family:<9} {method.uniforms_per_draw:>6} "
          f"{stat:>8.4f} {ks_critical_value(N):>8.4f} "
          f"{m.mean:>8.4f} {m.variance:>7.3f} {m.skewness:>7.3f} "
          f"{m.excess_kurtosis:>7.3f}")

# --- what "hardened" buys, in one sentence ----------------------------------
# naive-laplace and box-muller expose their uniforms directly (one or two
# per output); everything marked "divisible" spreads each output over
# several uniforms, which is what stops the attacks in demos 02 and 03.

print()
for name in method_names():
    method = get_method(name)
    print(f"  {name:<20} -> {method.hardening:<10} "
          f"({method.uniforms_per_draw} uniform(s) behind each draw)")

# --- seeded vs secure sources -----------------------------------------------
# A seed gives a reproducible deterministic stream (used throughout the
# tests); omitting it switches to the operating system's entropy.

seeded_a = get_method("naive-laplace").make_drawer(BitSource(seed=7))()
seeded_b = get_method("naive-laplace").make_drawer(BitSource(seed=7))()
secure = get_method("naive-laplace").make_drawer(BitSource())()
print()
print("seeded draws agree:  ", seeded_a == seeded_b)
print("secure-mode draw:    ", secure)
