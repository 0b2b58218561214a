"""
What breaking one hardened output costs
=======================================

When consecutive-output pairing is gone (demo 03), inverting a single
Gaussian output means searching: which uniform pairs (u1, u2) could have
produced it?  Only u1 values with enough radial reach are feasible — a
window whose exact size count_feasible_checks() computes and whose
average is 2^(p - 1/2).  This demo measures both at toy precisions, where
brute force is possible, and extrapolates to p = 53, where it is not.

Run:  python demos/05_inversion_cost.py
"""

import timeit

import numpy as np

from divsamp import (
    BitSource,
    GaussianStream,
    brute_force_single_gaussian,
    count_feasible_checks,
    expected_checks,
)


class Planted(BitSource):
    """A bit source that hands out the given numerators in turn."""

    def __init__(self, *numerators):
        super().__init__(seed=0)
        self._next = iter(numerators).__next__

    def getrandbits(self, k):
        return self._next()


# --- the feasible window for one concrete output ----------------------------
# A grid point is its integer numerator m, standing for u = m / 2^P.  The
# planted pair goes through a Box-Muller stream, as demo 03's drawn one
# does, and the search targets the stream's first (cosine) output.

P = 12
m1, m2 = 2500, 600
n1 = GaussianStream(Planted(m1, m2), P).next()

window = count_feasible_checks(n1, P)
print(f"output n1 = {n1:.6f} at p = {P}")
print(f"feasible u1 window: {window} of {2**P} grid points "
      f"({window / 2**P:.1%} of the grid)")

# --- brute force actually recovers the pair ---------------------------------

# The first search at a precision builds its one pair of tables, the 2^P
# row radii and the 2^P grid-angle cosines, and later ones reuse it.  One
# cold timing swings by half from run to run; the best of five calls that
# reuse the tables is a stable figure to extrapolate from.
result = brute_force_single_gaussian(n1, P)
elapsed = min(timeit.repeat(lambda: brute_force_single_gaussian(n1, P), number=1, repeat=5))
print(f"search examined {result.checks} u1 candidates in {elapsed * 1e3:.1f} ms "
      "(best of 5 warm calls, radius and cosine tables already built)")
print(f"exact preimages found: {len(result.pairs)}")
print("planted pair recovered:", (m1, m2) in result.pairs)

# --- the average window matches the model -----------------------------------
# Averaging the window size over standard normal outputs gives
# 2^p / sqrt(2); Monte Carlo at three precisions:

rng = np.random.default_rng(90210)
draws = rng.standard_normal(100_000)
print()
print(f"{'p':>4} {'measured mean':>16} {'2^(p-1/2)':>16} {'ratio':>7}")
for p in (12, 16, 20):
    mean = float(np.mean([count_feasible_checks(x, p) for x in draws]))
    print(f"{p:>4} {mean:>16.1f} {expected_checks(p):>16.1f} "
          f"{mean / expected_checks(p):>7.4f}")

# --- measured search cost tracks the model too ------------------------------

stream = GaussianStream(BitSource(seed=31337), P)
total = 0
for _ in range(100):
    out = stream.next()
    stream.next()  # discard the cached half; the search targets the cosine branch
    total += brute_force_single_gaussian(out, P).checks
print()
print(f"mean brute-force checks over 100 draws at p={P}: {total / 100:.0f} "
      f"(model: {expected_checks(P):.0f})")

# --- extrapolation to full precision ----------------------------------------
# At p = 53 the same search is ~2^52.5 forward evaluations per output —
# and n-fold averaging multiplies exponents, pushing toward 2^(p(n-1)).
# Hardening trades that attack cost for a linear 2n uniforms per draw.

per_sec = result.checks / elapsed
print()
print(f"at this machine's {per_sec:,.0f} checks/second, one p=53 inversion "
      f"needs ~{expected_checks(53) / per_sec / 86400 / 365.25:,.0f} years, "
      "not counting its 2^53-entry radius and cosine tables")
for n in (1, 2, 4):
    print(f"  divisibility n={n}: uniforms per draw {2 * n}, "
          f"search exponent grows like p*(n-1) = {53 * (n - 1)} bits beyond the first")
