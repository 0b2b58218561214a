"""Analytic reference distributions: densities and CDFs.

These are the closed forms the samplers are checked against.  The Laplace
CDF and its inverse are written exactly as the sampling transforms use
them — including the rounded sign selector in the inverse — because the
attack code must reproduce the sampler's arithmetic bit for bit, not just
to within an ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Uniform",
    "Gaussian",
    "Laplace",
    "Exponential",
    "Gamma",
    "ChiSquared",
    "DistributionSpec",
    "pdf",
    "laplace_cdf",
    "laplace_inverse_cdf",
    "gaussian_cdf",
]

_SQRT_TWO = math.sqrt(2.0)
_GAUSS_NORM = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Uniform:
    """Continuous uniform on the closed interval ``[a, b]``."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValueError(f"need a < b, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class Gaussian:
    """Normal with mean ``mu`` and standard deviation ``sigma``."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class Laplace:
    """Laplace with location ``mu`` and scale ``b`` (variance ``2 b**2``)."""

    mu: float = 0.0
    b: float = 1.0

    def __post_init__(self) -> None:
        if not self.b > 0:
            raise ValueError(f"scale must be positive, got {self.b}")


@dataclass(frozen=True)
class Exponential:
    """Exponential with rate ``lam`` (mean ``1 / lam``), supported on x >= 0."""

    lam: float = 1.0

    def __post_init__(self) -> None:
        if not self.lam > 0:
            raise ValueError(f"rate must be positive, got {self.lam}")


@dataclass(frozen=True)
class Gamma:
    """Gamma with shape ``k`` and scale ``theta``, supported on x > 0."""

    k: float
    theta: float

    def __post_init__(self) -> None:
        if not (self.k > 0 and self.theta > 0):
            raise ValueError(
                f"shape and scale must be positive, got k={self.k}, theta={self.theta}"
            )


@dataclass(frozen=True)
class ChiSquared:
    """Chi-squared with ``k`` degrees of freedom."""

    k: int

    def __post_init__(self) -> None:
        if not (isinstance(self.k, int) and not isinstance(self.k, bool) and self.k >= 1):
            raise ValueError(f"degrees of freedom must be a positive integer, got {self.k!r}")


DistributionSpec = Uniform | Gaussian | Laplace | Exponential | Gamma | ChiSquared


def pdf(spec: DistributionSpec, x: float) -> float:
    """Evaluate the density of ``spec`` at ``x`` (0.0 outside the support).

    Gamma and chi-squared densities at exactly ``x = 0`` return the
    limiting value: 0 for shape > 1, the finite limit for shape == 1, and
    ``inf`` for shape < 1.
    """
    if isinstance(spec, Uniform):
        if spec.a <= x <= spec.b:
            return 1.0 / (spec.b - spec.a)
        return 0.0
    if isinstance(spec, Gaussian):
        z = (x - spec.mu) / spec.sigma
        return _GAUSS_NORM / spec.sigma * math.exp(-0.5 * z * z)
    if isinstance(spec, Laplace):
        return math.exp(-abs(x - spec.mu) / spec.b) / (2.0 * spec.b)
    if isinstance(spec, Exponential):
        if x < 0.0:
            return 0.0
        return spec.lam * math.exp(-spec.lam * x)
    if isinstance(spec, Gamma):
        return _shape_scale_pdf(x, spec.k, spec.theta, math.gamma(spec.k))
    if isinstance(spec, ChiSquared):
        half = spec.k / 2.0
        return _shape_scale_pdf(x, half, 2.0, math.gamma(half))
    raise TypeError(f"not a distribution spec: {spec!r}")


def _shape_scale_pdf(x: float, shape: float, scale: float, gamma_shape: float) -> float:
    # Shared gamma-family density x**(shape-1) e**(-x/scale) / (Gamma(shape) scale**shape).
    if x < 0.0:
        return 0.0
    if x == 0.0:
        if shape > 1.0:
            return 0.0
        if shape == 1.0:
            return 1.0 / scale
        return math.inf
    log_density = (
        (shape - 1.0) * math.log(x)
        - x / scale
        - math.log(gamma_shape)
        - shape * math.log(scale)
    )
    return math.exp(log_density)


def laplace_cdf(x: float) -> float:
    """Standard Laplace CDF: ``e**x / 2`` for x <= 0, else ``1 - e**-x / 2``."""
    if x <= 0.0:
        return 0.5 * math.exp(x)
    return 1.0 - 0.5 * math.exp(-x)


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
    return 0.5 * (1.0 + math.erf(x / _SQRT_TWO))
