"""Noise samplers: vulnerable baselines and divisibility-hardened forms.

Two families live here.  The vulnerable baselines (``naive_laplace``, the
cached Box-Muller stream) each expose a one- or two-uniform fingerprint
that an adversary can invert.  The hardened samplers combine several
uniforms per output so that recovering the underlying variates means
searching a product grid: ``laplace_expdiff`` (difference of two
exponentials), ``laplace_sqsum`` and ``laplace_proddiff`` (four Gaussians),
``laplace_logcos`` (four uniforms through a log-cosine identity), and
``secure_gaussian`` (a 2n-fold Gaussian average).

The forward Box-Muller maps are factored out as :func:`bm_cos` /
:func:`bm_sin` because the attack module must re-evaluate them with
bit-identical arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .dist import laplace_inverse_cdf
from .urand import BitSource, DEFAULT_PRECISION, UniformVariate, check_precision, next_uniform

DEFAULT_DIVISIBILITY = 4
TWO_PI = 2.0 * math.pi

__all__ = [
    "DEFAULT_DIVISIBILITY",
    "naive_laplace",
    "naive_laplace_from_numerator",
    "naive_laplace_from_variate",
    "bm_radius",
    "bm_cos",
    "bm_sin",
    "GaussianStream",
    "secure_gaussian",
    "laplace_expdiff",
    "laplace_sqsum",
    "laplace_proddiff",
    "laplace_logcos",
    "symmetric_cos",
    "SamplerMethod",
    "get_method",
    "method_names",
]


def _uniform_value(src: BitSource, p: int) -> float:
    return next_uniform(src, p).value


def _check_divisibility(n: int) -> None:
    # bool is an int subclass; True must not pass as divisibility 1
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"divisibility must be a positive integer, got {n!r}")


def naive_laplace_from_numerator(m: int, p: int) -> float:
    """The deterministic uniform-to-Laplace transform of the naive sampler.

    Maps grid numerator ``m`` at precision ``p`` (unchecked: callers pass a
    valid grid point) through the inverse Laplace CDF.  A numerator of zero
    is remapped to the smallest positive grid point ``2**-p`` (a
    probability ``2**-p`` event) so the logarithm never sees zero.  Attack
    code re-evaluates exactly this transform when it checks a grid point.
    """
    return laplace_inverse_cdf(math.ldexp(m or 1, -p))


def naive_laplace_from_variate(u: UniformVariate) -> float:
    """:func:`naive_laplace_from_numerator` applied to a variate."""
    return naive_laplace_from_numerator(u.m, u.p)


def naive_laplace(src: BitSource, p: int = DEFAULT_PRECISION) -> float:
    """One standard Laplace draw by direct inversion of one uniform.

    This is the textbook inverse-transform sampler.  Its output space is a
    deterministic image of the ``2**p``-point grid, which is exactly what
    makes it attackable; it is included as the baseline under test.  At
    ``p = 1`` it always returns ``0.0``: both grid points map to
    ``u = 0.5``, because the zero numerator is remapped onto ``m = 1``.
    """
    return naive_laplace_from_variate(next_uniform(src, p))


def bm_radius(u1: float) -> float:
    """Box-Muller radial factor ``sqrt(-2 log(1 - u1))``."""
    return math.sqrt(-2.0 * math.log(1.0 - u1))


def bm_cos(u1: float, u2: float) -> float:
    """Cosine-branch Box-Muller output for the uniform pair ``(u1, u2)``."""
    return bm_radius(u1) * math.cos(TWO_PI * u2)


def bm_sin(u1: float, u2: float) -> float:
    """Sine-branch Box-Muller output for the uniform pair ``(u1, u2)``."""
    return bm_radius(u1) * math.sin(TWO_PI * u2)


class GaussianStream:
    """Box-Muller Gaussian generator with the customary cached second output.

    Each evaluation consumes two uniforms and produces the pair
    ``(bm_cos, bm_sin)``; the second value is cached and returned by the
    next call.  The cache is what couples consecutive outputs — the
    property the pair-inversion attack exploits — so ``phase`` is exposed
    for callers that need to reason about alignment.
    """

    def __init__(self, src: BitSource, p: int = DEFAULT_PRECISION) -> None:
        check_precision(p)
        self.src = src
        self.p = p
        self._cache: float | None = None

    @property
    def phase(self) -> str:
        """``"empty"`` before an evaluation, ``"cached"`` while one output is held."""
        return "empty" if self._cache is None else "cached"

    def next(self) -> float:
        """Return the next standard Gaussian output."""
        if self._cache is not None:
            out = self._cache
            self._cache = None
            return out
        u1 = _uniform_value(self.src, self.p)
        u2 = _uniform_value(self.src, self.p)
        first = bm_cos(u1, u2)
        self._cache = bm_sin(u1, u2)
        return first


def secure_gaussian(
    src: BitSource, p: int = DEFAULT_PRECISION, n: int = DEFAULT_DIVISIBILITY
) -> float:
    """A standard Gaussian as a normalized sum of ``2 n`` Box-Muller outputs.

    Draws a fresh stream, sums ``2 n`` consecutive outputs (both halves of
    each evaluated pair, so nothing is cached across calls), and divides by
    ``sqrt(2 n)``.  Consumes exactly ``2 n`` uniforms.  Inverting one
    output now requires searching roughly the full product grid of all
    ``2 n`` uniforms instead of reading one pair off the output.
    """
    _check_divisibility(n)
    stream = GaussianStream(src, p)
    total = 0.0
    for _ in range(2 * n):
        total += stream.next()
    return total / math.sqrt(2 * n)


def laplace_expdiff(src: BitSource, p: int = DEFAULT_PRECISION) -> float:
    """Standard Laplace as a difference of two independent exponentials.

    Consumes two uniforms: ``(-log(1-U1)) - (-log(1-U2))``.
    """
    e1 = -math.log(1.0 - _uniform_value(src, p))
    e2 = -math.log(1.0 - _uniform_value(src, p))
    return e1 - e2


def laplace_sqsum(src: BitSource, p: int = DEFAULT_PRECISION, m: int = 1) -> float:
    """Standard Laplace from squared Gaussians: ``(N1² - N2² + N3² - N4²) / 2``.

    Each of the four standard Gaussians is itself drawn by
    :func:`secure_gaussian` with divisibility ``m``, so one output consumes
    ``8 m`` uniforms.
    """
    n1 = secure_gaussian(src, p, m)
    n2 = secure_gaussian(src, p, m)
    n3 = secure_gaussian(src, p, m)
    n4 = secure_gaussian(src, p, m)
    return 0.5 * (n1 * n1 - n2 * n2 + n3 * n3 - n4 * n4)


def laplace_proddiff(src: BitSource, p: int = DEFAULT_PRECISION, m: int = 1) -> float:
    """Standard Laplace as a difference of Gaussian products: ``N1 N2 - N3 N4``.

    As with :func:`laplace_sqsum`, each factor is a divisibility-``m``
    secure Gaussian, for ``8 m`` uniforms per output.
    """
    n1 = secure_gaussian(src, p, m)
    n2 = secure_gaussian(src, p, m)
    n3 = secure_gaussian(src, p, m)
    n4 = secure_gaussian(src, p, m)
    return n1 * n2 - n3 * n4


def symmetric_cos(u: UniformVariate) -> float:
    """Sign-symmetric cosine factor built from an exact bit split of ``u``.

    The top bit of the numerator selects the sign and the remaining bits
    form ``u mod 1/2``, so the result is ``±cos(pi * (u mod 1/2))``.  The
    split is done on the integer numerator, making the sign /magnitude
    decomposition exact rather than a rounded float operation.  Restores
    the sign symmetry that plain ``cos(pi * u)`` lacks over half-open
    uniforms.
    """
    half = 1 << (u.p - 1)
    mag = math.ldexp(u.m & (half - 1), -u.p)
    c = math.cos(math.pi * mag)
    return -c if u.m & half else c


def laplace_logcos(
    src: BitSource, p: int = DEFAULT_PRECISION, symmetric: bool = False
) -> float:
    """Standard Laplace from two log-cosine products over four uniforms.

    Computes ``log(1-U1) cos(pi U2) + log(1-U3) cos(pi U4)``.  Each term is
    the projection of a squared-Gaussian difference onto one uniform pair,
    and the sum of the two terms is exactly Laplace-distributed.  With
    ``symmetric=True`` the cosine factors are evaluated via
    :func:`symmetric_cos`, which restores the ±symmetry lost to the
    half-open uniform range.  Consumes four uniforms either way.
    """
    u1 = _uniform_value(src, p)
    if symmetric:
        c2 = symmetric_cos(next_uniform(src, p))
    else:
        c2 = math.cos(math.pi * _uniform_value(src, p))
    u3 = _uniform_value(src, p)
    if symmetric:
        c4 = symmetric_cos(next_uniform(src, p))
    else:
        c4 = math.cos(math.pi * _uniform_value(src, p))
    return math.log(1.0 - u1) * c2 + math.log(1.0 - u3) * c4


# --- method registry ---------------------------------------------------------

_DrawerFactory = Callable[[BitSource, int], Callable[[], float]]


@dataclass(frozen=True)
class SamplerMethod:
    """A named sampling procedure with its consumption metadata.

    ``hardening`` is ``"naive"`` for the directly invertible baselines and
    ``"divisible"`` for samplers that combine several uniforms per output;
    for the latter, ``uniforms_per_draw`` is the attack-relevant component
    count.  For the cached Box-Muller stream the figure is amortized: two
    uniforms feed two consecutive outputs.
    """

    name: str
    family: str  # "laplace" | "gaussian"
    hardening: str  # "naive" | "divisible"
    uniforms_per_draw: int
    _factory: _DrawerFactory

    def make_drawer(self, src: BitSource, p: int = DEFAULT_PRECISION) -> Callable[[], float]:
        """Bind the method to a bit source, returning a zero-argument drawer."""
        check_precision(p)
        return self._factory(src, p)


# name -> (family, hardening, uniforms per draw per unit of divisibility,
# default divisibility or None for methods without one, drawer factory
# (src, p, n) -> zero-argument drawer).  Insertion order is registry order.
_REGISTRY: dict[str, tuple[str, str, int, int | None, Callable[..., Callable[[], float]]]] = {
    "naive-laplace":
        ("laplace", "naive", 1, None, lambda s, p, n: lambda: naive_laplace(s, p)),
    "box-muller":
        ("gaussian", "naive", 1, None, lambda s, p, n: GaussianStream(s, p).next),
    "laplace-expdiff":
        ("laplace", "divisible", 2, None, lambda s, p, n: lambda: laplace_expdiff(s, p)),
    "laplace-sqsum":
        ("laplace", "divisible", 8, 1, lambda s, p, n: lambda: laplace_sqsum(s, p, n)),
    "laplace-proddiff":
        ("laplace", "divisible", 8, 1, lambda s, p, n: lambda: laplace_proddiff(s, p, n)),
    "laplace-logcos":
        ("laplace", "divisible", 4, None, lambda s, p, n: lambda: laplace_logcos(s, p)),
    "laplace-logcos-sym":
        ("laplace", "divisible", 4, None, lambda s, p, n: lambda: laplace_logcos(s, p, True)),
    "secure-gaussian": ("gaussian", "divisible", 2, DEFAULT_DIVISIBILITY,
                        lambda s, p, n: lambda: secure_gaussian(s, p, n)),
}


def get_method(name: str, n: int | None = None) -> SamplerMethod:
    """Look up a sampler by CLI name, binding divisibility ``n`` where it applies.

    ``n`` is the divisibility order for ``secure-gaussian`` (default 4) and
    the per-component order for ``laplace-sqsum`` / ``laplace-proddiff``
    (default 1).  Passing ``n`` for a method without a divisibility knob is
    an error.
    """
    if n is not None:
        _check_divisibility(n)
    if name not in _REGISTRY:
        raise ValueError(f"unknown sampler method {name!r}")
    family, hardening, per_unit, default_n, factory = _REGISTRY[name]
    if n is not None and default_n is None:
        raise ValueError(f"{name} takes no divisibility parameter")
    order = default_n if n is None else n
    return SamplerMethod(
        name, family, hardening, per_unit * (order or 1), lambda src, p: factory(src, p, order)
    )


def method_names() -> list[str]:
    """All registered sampler names, in registry order."""
    return list(_REGISTRY)
