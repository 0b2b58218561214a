"""Analytic reference distributions: the Laplace and Gaussian CDFs and the
Laplace quantile.

These are the closed forms the samplers are checked against.  The Laplace
CDF and its inverse are written exactly as the sampling transforms use
them — including the rounded sign selector in the inverse — because the
attack code must reproduce the sampler's arithmetic bit for bit, not just
to within an ulp.

The Laplace CDF has two forms: the scalar :func:`laplace_cdf`, a branch
that the survival checks call once per candidate, and ``_laplace_cdf(x,
lm)``, written without a branch so that numpy evaluates it over the
columns :func:`divsamp.stats.ks_statistic` tests.  The tests pin the two
equal bit for bit on every float, including ±0, subnormals, ±inf and NaN.
"""

from __future__ import annotations

import math

__all__ = [
    "laplace_cdf",
    "laplace_inverse_cdf",
    "gaussian_cdf",
]

_SQRT_TWO = math.sqrt(2.0)


def laplace_cdf(x: float) -> float:
    """Standard Laplace CDF: ``e**x / 2`` for x <= 0, else ``1 - e**-x / 2``."""
    h = 0.5 * math.exp(-abs(x))
    return 1.0 - h if x > 0.0 else h


def _laplace_cdf(x, lm):
    # h = exp(-|x|) / 2, and up + (1 - 2 up) h is h or 1 - h bit for bit:
    # laplace_cdf's branch in a form numpy also evaluates over a column
    # (lm as in _laplace_quantile)
    up = x > 0.0
    return up + (1.0 - 2.0 * up) * (0.5 * lm.exp(-abs(x)))


def laplace_inverse_cdf(u: float) -> float:
    """Standard Laplace quantile via the sign-selector form.

    Computes ``(-1)**round(u) * log(1 - 2 |u - 0.5|)``: the nearest-integer
    rounding of ``u`` picks the tail, and the magnitude is folded into a
    single logarithm.  This is the exact expression the naive sampler
    evaluates, so forward and inverse agree to the last bit; a branch on
    ``u < 0.5`` with separate formulas would not.

    Raises:
        ValueError: if ``u`` is outside the open interval (0, 1); the
            endpoints map to infinities.
    """
    if not 0.0 < u < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {u!r}")
    return _laplace_quantile(u, math)


def _laplace_quantile(u, lm):
    # (-1)**round(u) is written 1 - 2 [u > 1/2]: the same +-1.0 on (0, 1),
    # where round-half-to-even sends 0.5 to 0, and a form that numpy also
    # evaluates over a column (``lm`` is math or columns.COLUMN_MATH)
    return (1.0 - 2.0 * (u > 0.5)) * lm.log(1.0 - 2.0 * abs(u - 0.5))


def gaussian_cdf(x: float) -> float:
    """Standard normal CDF ``Phi(x) = (1 + erf(x / sqrt 2)) / 2``."""
    return _gaussian_cdf(x, math)


def _gaussian_cdf(x, lm):
    return 0.5 * (1.0 + lm.erf(x / _SQRT_TWO))
