"""
Running Box-Muller backwards
============================

The Box-Muller transform turns two uniforms into two Gaussians through
log, sqrt, cos and sin — all invertible.  Most implementations cache the
second Gaussian and hand it out on the next call, so two *consecutive*
outputs expose one complete uniform pair: radius from the sum of squares,
angle from atan2.  That single algebraic fact is enough to rebuild the
uniforms, and with them, to strip Gaussian noise off a protected value.

Run:  python demos/03_gaussian_pair_inversion.py
"""

import math

from divsamp import (
    BitSource,
    GaussianStream,
    QueryOracle,
    gaussian_pair_attack,
    get_method,
    invert_box_muller,
)

# --- invert one pair exactly ------------------------------------------------
# Two sources with the same seed: one hands out the numerators of the two
# uniforms, the other feeds them to a Box-Muller stream, whose two outputs
# are the cosine and sine halves of one evaluation.

m1, m2 = BitSource(seed=8086).numerators(53, 2).tolist()
u1, u2 = math.ldexp(m1, -53), math.ldexp(m2, -53)
stream = GaussianStream(BitSource(seed=8086))
n1, n2 = stream.next(), stream.next()
rec1, rec2 = invert_box_muller(n1, n2)

print("true uniforms:      ", (u1, u2))
print("gaussian pair:      ", (n1, n2))
print("recovered uniforms: ", (rec1, rec2))
print(f"recovery error:      {abs(rec1 - u1):.2e}, {abs(rec2 - u2):.2e} "
      f"(one grid step is {2**-53:.2e})")

# --- the attack over a cached stream ----------------------------------------
# The oracle adds one stream output per query; consecutive queries are the
# two halves of one evaluation, so the attack consumes them in pairs.

stream = GaussianStream(BitSource(seed=1999))
oracle = QueryOracle(1.0, stream.next, stream=stream)
outcome = gaussian_pair_attack(oracle, [0.0, 1.0], max_queries=100)

print()
print("attack on cached Box-Muller noise:")
print("status:           ", outcome.status)
print("recovered value:  ", outcome.value)
print("queries consumed: ", outcome.queries_used)

# --- averaging breaks the pair structure ------------------------------------
# Summing 2n outputs and rescaling by 1/sqrt(2n) leaves the distribution
# exactly Gaussian (stability under convolution) but removes the
# output-to-uniform correspondence the inversion needs.  Even n = 1 (two
# outputs averaged) is enough to take the identification rate to zero.

for n in (1, 2):
    noise = get_method("secure-gaussian", n).make_drawer(BitSource(seed=1999))
    oracle = QueryOracle(1.0, noise)
    out = gaussian_pair_attack(oracle, [0.0, 1.0], max_queries=100)
    print(f"against secure-gaussian n={n}:  {out.status} "
          f"(recovered {out.value}, {out.queries_used} queries)")

# --- why the defense still samples correctly --------------------------------

xs = get_method("secure-gaussian", 2).column(BitSource(seed=77), 53, 50_000).tolist()
mean = sum(xs) / len(xs)
var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
print()
print(f"secure-gaussian n=2 over 50000 draws: mean {mean:+.4f}, variance {var:.4f}")
print(f"cost: exactly {2 * 2} uniforms per draw (vs 1 amortized for the raw stream)")
assert abs(var - 1.0) < 0.03
