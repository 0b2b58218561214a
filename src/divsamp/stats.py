"""Statistical verification: goodness of fit, moments, output-space coverage.

Hardening a sampler is only acceptable if the hardened form still has
exactly the right distribution, so every sampler in this package is held
to the same checks: a two-sided Kolmogorov-Smirnov test against the
analytic CDF, moment estimates with explicit tolerance bands, and — for
the attack-facing analysis — a count of distinct representable outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .columns import COLUMN_MATH
from .dist import _gaussian_cdf, _laplace_cdf, gaussian_cdf, laplace_cdf
from .urand import check_positive

KS_CRIT_001 = 1.628

__all__ = [
    "KS_CRIT_001",
    "ks_critical_value",
    "ks_p_value",
    "ks_statistic",
    "MomentSummary",
    "moments",
    "distinct_output_count",
]


def ks_critical_value(n: int) -> float:
    """Asymptotic two-sided KS critical value at level 0.01: ``1.628 / sqrt(n)``."""
    check_positive(n, "sample count")
    return KS_CRIT_001 / math.sqrt(n)


def ks_p_value(statistic: float, n: int) -> float:
    """Asymptotic two-sided KS p-value: the Kolmogorov tail ``P(K > sqrt(n) D)``.

    The large-``n`` approximation :func:`ks_critical_value` also uses, so a
    critical value's p-value is close to 0.01.  Four terms of
    ``2 sum (-1)**(k-1) exp(-2 k**2 t**2)`` for ``t >= 1.18``, and of the
    series ``1 - sqrt(2 pi) / t sum exp(-(2k-1)**2 pi**2 / (8 t**2))`` below.

    Raises:
        ValueError: for a statistic outside [0, 1] (NaN included), or an
            ``n`` that is not a positive ``int``.
    """
    check_positive(n, "sample count")
    if not 0.0 <= statistic <= 1.0:
        raise ValueError(f"KS statistic must lie in [0, 1], got {statistic!r}")
    t = math.sqrt(n) * statistic
    if t <= 0.0:
        return 1.0
    if t < 1.18:
        y = math.exp(-math.pi**2 / (8.0 * t * t))
        p = 1.0 - math.sqrt(2.0 * math.pi) / t * (y + y**9 + y**25 + y**49)
    else:
        x = math.exp(-2.0 * t * t)
        p = 2.0 * (x - x**4 + x**9 - x**16)
    return min(max(p, 0.0), 1.0)


def _finite_sample(samples) -> np.ndarray:
    a = np.asarray(samples if isinstance(samples, np.ndarray) else list(samples), dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("samples must be finite")
    return a


def ks_statistic(samples, cdf: Callable[[float], float]) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of ``samples`` against ``cdf``.

    Computes ``max(D+, D-)`` with ``D+ = max_i (i/n - F(x_(i)))`` and
    ``D- = max_i (F(x_(i)) - (i-1)/n)`` over the order statistics.  The
    input need not be pre-sorted.  ``cdf`` is called once per sample, except
    that :func:`divsamp.dist.laplace_cdf` and :func:`~divsamp.dist.gaussian_cdf`
    are evaluated over the whole sorted sample at once, on
    :data:`~divsamp.columns.COLUMN_MATH`, which gives the same bits.

    Raises:
        ValueError: for an empty sample or one holding NaN or an infinity.
    """
    x = np.sort(_finite_sample(samples))
    n = x.size
    if n == 0:
        raise ValueError("need at least one sample")
    if cdf is laplace_cdf:
        f = _laplace_cdf(x, COLUMN_MATH)
    elif cdf is gaussian_cdf:
        f = _gaussian_cdf(x, COLUMN_MATH)
    else:
        f = np.asarray([cdf(float(v)) for v in x])
    i = np.arange(1, n + 1, dtype=float)
    d_plus = float(np.max(i / n - f))
    d_minus = float(np.max(f - (i - 1.0) / n))
    return max(d_plus, d_minus)


@dataclass(frozen=True)
class MomentSummary:
    """Sample moments: unbiased mean/variance, standardized third/fourth."""

    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float


def moments(samples) -> MomentSummary:
    """Summarize the first four moments of ``samples``.

    Variance is the unbiased (n-1) estimator; skewness and excess kurtosis
    are the standardized central moments ``m3 / m2^1.5`` and
    ``m4 / m2**2 - 3``.

    Raises:
        ValueError: with fewer than four samples, a sample holding NaN or
            an infinity, or a degenerate sample (zero variance).
    """
    a = _finite_sample(samples)
    n = a.size
    if n < 4:
        raise ValueError(f"need at least 4 samples for four moments, got {n}")
    mean = float(a.mean())
    variance = float(a.var(ddof=1))
    d = a - mean
    m2 = float(np.mean(d * d))
    if m2 == 0.0:
        raise ValueError("degenerate sample: zero variance")
    m3 = float(np.mean(d**3))
    m4 = float(np.mean(d**4))
    return MomentSummary(
        mean=mean,
        variance=variance,
        skewness=m3 / m2**1.5,
        excess_kurtosis=m4 / (m2 * m2) - 3.0,
    )


def distinct_output_count(values) -> int:
    """Number of distinct IEEE-754 bit patterns in ``values``.

    Distinctness is by bit pattern (so 0.0 and -0.0 count separately),
    which is the resolution an attacker observes.  Callers draw the column,
    e.g. with a sampler method's ``column``.
    """
    return int(np.unique(np.asarray(values, dtype=np.float64).view(np.uint64)).size)
