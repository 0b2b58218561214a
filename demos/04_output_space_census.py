"""
Counting what a sampler can actually emit
=========================================

A sampler driven by one p-bit uniform can emit at most 2^p distinct
floats, no matter how many draws you take.  At p = 8 that ceiling is 256
— small enough to census exhaustively and *see* the gap between a naive
sampler and one that mixes several uniforms per output.  This gap is the
entire attack surface: membership in a tiny, enumerable image is the test
the elimination attacks run.

Run:  python demos/04_output_space_census.py
"""

import math

from divsamp import BitSource, distinct_output_count, get_method
from divsamp.dist import laplace_inverse_cdf

P = 8
DRAWS = 200_000

# --- the census -------------------------------------------------------------
# Distinctness is by IEEE bit pattern, the resolution an attacker sees.

for name in ("naive-laplace", "laplace-expdiff", "laplace-logcos", "box-muller"):
    count = distinct_output_count(get_method(name).column(BitSource(seed=123), P, DRAWS))
    print(f"{name:<18} emits {count:>7} distinct floats in {DRAWS} draws at p={P}")

# --- the naive image, written out -------------------------------------------
# All 256 grid points map through the inverse CDF, as the naive sampler
# maps them; numerator 0 is folded onto numerator 1, so the image has 255
# members.  An attacker checks membership in this set by rounding back and
# re-evaluating forward.

image = sorted({laplace_inverse_cdf(math.ldexp(max(m, 1), -P)) for m in range(2**P)})
print()
print(f"naive image size at p={P}: {len(image)}")
print("five smallest:", [round(v, 4) for v in image[:5]])
print("five largest: ", [round(v, 4) for v in image[-5:]])

# --- gaps are observable ----------------------------------------------------
# Between consecutive naive outputs near zero the spacing is about
# 2^{1-p}: any released value falling strictly inside such a gap can't
# have come from the naive sampler at all.

mid = len(image) // 2
for a, b in zip(image[mid : mid + 3], image[mid + 1 : mid + 4]):
    print(f"gap between consecutive outputs near zero: {b - a:.6f}")

# --- hardened samplers fill the space ---------------------------------------
# Four uniforms per output pushes the reachable-output count toward the
# product grid 2^{4p}; at p = 8 a short run already overwhelms the
# 256-point ceiling the naive sampler is stuck under.

hardened = distinct_output_count(get_method("laplace-logcos").column(BitSource(seed=9), P, DRAWS))
print()
print(f"laplace-logcos distinct outputs: {hardened} "
      f"({hardened / DRAWS:.2%} of draws were new floats)")
