"""Noise samplers: vulnerable baselines and divisibility-hardened forms.

Two families live here.  The vulnerable baselines (``naive-laplace``, the
cached Box-Muller stream) each expose a one- or two-uniform fingerprint
that an adversary can invert.  The hardened samplers combine several
uniforms per output so that recovering the underlying variates means
searching a product grid: ``laplace-expdiff`` (difference of two
exponentials), ``laplace-sqsum`` and ``laplace-proddiff`` (four Gaussians),
``laplace-logcos`` (four uniforms through a log-cosine identity), and
``secure-gaussian`` (a 2n-fold Gaussian average).

:func:`get_method` is the sampler API: it looks a method up by name and
returns a :class:`SamplerMethod`, whose ``make_drawer(src, p)`` binds it
to a bit source for one output per call and whose ``column(src, p, count)``
returns a batch as one float64 array.  The forward Box-Muller maps are
also exposed, one output at a time, as :func:`bm_cos` / :func:`bm_sin`;
the pair attack re-evaluates them with bit-identical arithmetic.

Each method's arithmetic is written once, as a *kernel*: a function of
``(take, p, lm)`` that pulls the grid numerators of one output, in draw
order, from the zero-argument ``take`` and returns that output (the
Box-Muller pair kernel returns both halves of the pair), calling
``log``, ``cos``, ``sin``, ``sqrt`` and ``ldexp`` on the namespace ``lm``.
The drawer feeds a kernel single raw numerators, with ``lm = math``; the
precision is checked once, when the drawer is made.
:meth:`SamplerMethod.column` feeds it numpy columns of numerators, one
element per output, with ``lm =`` :data:`~divsamp.columns.COLUMN_MATH`.
Sign selections are written ``1 - 2 [condition]``, which Python and
numpy evaluate alike, so both paths give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .columns import COLUMN_MATH
from .dist import _laplace_quantile
from .urand import BitSource, DEFAULT_PRECISION, _take_numerator, check_count, check_precision

DEFAULT_DIVISIBILITY = 4
TWO_PI = 2.0 * math.pi
# Uniforms drawn per batch by SamplerMethod.column: the smallest batch within
# 3% of the fastest `verify-sweep` measured (2048 to 32768).  It runs a
# 16-uniform method's libm maps over 512-row columns; larger batches were
# no faster and raised peak memory.
DRAW_BATCH_UNIFORMS = 8192

__all__ = [
    "DEFAULT_DIVISIBILITY",
    "DRAW_BATCH_UNIFORMS",
    "naive_laplace_from_numerator",
    "bm_radius",
    "bm_cos",
    "bm_sin",
    "GaussianStream",
    "SamplerMethod",
    "get_method",
    "method_names",
]

_Take = Callable[[], int]
_Kernel = Callable[[_Take, int, object], float]


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
    return _naive_laplace(m, p, math)


def _naive_laplace(m, p: int, lm):
    # m + (m == 0) is ``m or 1`` in a form numpy also evaluates per element
    return _laplace_quantile(lm.ldexp(m + (m == 0), -p), lm)


def _naive_kernel(take: _Take, p: int, lm) -> float:
    # F^-1(U): the inverse Laplace CDF of one uniform
    return _naive_laplace(take(), p, lm)


def bm_radius(u1: float) -> float:
    """Box-Muller radial factor ``sqrt(-2 log(1 - u1))``."""
    return _bm_radius(u1, math)


def _bm_radius(u1, lm):
    return lm.sqrt(-2.0 * lm.log(1.0 - u1))


def bm_cos(u1: float, u2: float) -> float:
    """Cosine-branch Box-Muller output for the uniform pair ``(u1, u2)``."""
    return bm_radius(u1) * math.cos(TWO_PI * u2)


def bm_sin(u1: float, u2: float) -> float:
    """Sine-branch Box-Muller output for the uniform pair ``(u1, u2)``."""
    return bm_radius(u1) * math.sin(TWO_PI * u2)


def _bm_pair(u1, u2, lm):
    # (bm_cos(u1, u2), bm_sin(u1, u2)) with the radial factor computed once
    r = _bm_radius(u1, lm)
    angle = TWO_PI * u2
    return r * lm.cos(angle), r * lm.sin(angle)


def _bm_pair_kernel(take: _Take, p: int, lm) -> tuple[float, float]:
    u1 = lm.ldexp(take(), -p)
    return _bm_pair(u1, lm.ldexp(take(), -p), lm)


def _gaussian_sum_kernel(take: _Take, p: int, lm, n: int) -> float:
    # (G1 + ... + G2n) / sqrt(2n) over n fresh Box-Muller pairs
    # both halves of n pairs, added one at a time in stream order: the
    # rounding of each addition is part of the seeded output
    total = 0.0
    for _ in range(n):
        first, second = _bm_pair_kernel(take, p, lm)
        total += first
        total += second
    return total / lm.sqrt(2 * n)


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
        self.p = p
        self._take = partial(_take_numerator, src, p)
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
        first, self._cache = _bm_pair_kernel(self._take, self.p, math)
        return first


def _expdiff_kernel(take: _Take, p: int, lm) -> float:
    # (-log(1-U1)) - (-log(1-U2))
    e1 = -lm.log(1.0 - lm.ldexp(take(), -p))
    e2 = -lm.log(1.0 - lm.ldexp(take(), -p))
    return e1 - e2


def _sqsum(n1: float, n2: float, n3: float, n4: float) -> float:
    # (N1² - N2² + N3² - N4²) / 2
    return 0.5 * (n1 * n1 - n2 * n2 + n3 * n3 - n4 * n4)


def _proddiff(n1: float, n2: float, n3: float, n4: float) -> float:
    # N1 N2 - N3 N4
    return n1 * n2 - n3 * n4


def _four_gaussians_kernel(combine: Callable[..., float], m: int) -> _Kernel:
    """Kernel applying ``combine`` to four divisibility-``m`` Gaussian sums."""
    def kernel(take: _Take, p: int, lm) -> float:
        return combine(*[_gaussian_sum_kernel(take, p, lm, m) for _ in range(4)])
    return kernel


def _symmetric_cos(m, p: int, lm):
    # ±cos(pi (U mod 1/2)), the sign from the numerator's top bit
    half = 1 << (p - 1)
    c = lm.cos(math.pi * lm.ldexp(m & (half - 1), -p))
    # -c where the top bit is set; -1.0 * c is -c exactly
    return (1.0 - 2.0 * (m >= half)) * c


def _plain_cos(m, p: int, lm):
    return lm.cos(math.pi * lm.ldexp(m, -p))


def _logcos_kernel(cos_factor: Callable[..., float]) -> _Kernel:
    """Kernel for ``log(1-U1) c(U2) + log(1-U3) c(U4)`` with cosine factor ``c``."""
    def kernel(take: _Take, p: int, lm) -> float:
        u1 = lm.ldexp(take(), -p)
        c2 = cos_factor(take(), p, lm)
        u3 = lm.ldexp(take(), -p)
        c4 = cos_factor(take(), p, lm)
        return lm.log(1.0 - u1) * c2 + lm.log(1.0 - u3) * c4
    return kernel


_LOGCOS = _logcos_kernel(_plain_cos)
_LOGCOS_SYM = _logcos_kernel(_symmetric_cos)


# --- method registry ---------------------------------------------------------


@dataclass(frozen=True)
class SamplerMethod:
    """A named sampling procedure with its consumption metadata.

    ``hardening`` is ``"naive"`` for the directly invertible baselines and
    ``"divisible"`` for samplers that combine several uniforms per output;
    for the latter, ``uniforms_per_draw`` is the attack-relevant component
    count.  For the cached Box-Muller stream the figure is amortized: two
    uniforms feed two consecutive outputs.

    ``_kernel`` is the method's arithmetic (see the module docstring),
    returning ``_outputs`` values per call: 1, or 2 for the Box-Muller
    pair, whose drawer is a :class:`GaussianStream`.
    """

    name: str
    family: str  # "laplace" | "gaussian"
    hardening: str  # "naive" | "divisible"
    uniforms_per_draw: int
    _kernel: Callable[[_Take, int, object], object]
    _outputs: int = 1

    def make_drawer(self, src: BitSource, p: int = DEFAULT_PRECISION) -> Callable[[], float]:
        """Bind the method to a bit source, returning a zero-argument drawer."""
        check_precision(p)
        if self._outputs == 1:
            return partial(self._kernel, partial(_take_numerator, src, p), p, math)
        return GaussianStream(src, p).next

    def column(self, src: BitSource, p: int, count: int) -> np.ndarray:
        """The values of ``count`` calls to ``make_drawer(src, p)()``, bit for bit, as float64.

        Leaves ``src``'s counters and generator exactly where those calls
        would.  Numerators come from :meth:`BitSource.numerators` in batches
        of about :data:`DRAW_BATCH_UNIFORMS` uniforms.  A batch of ``k``
        kernel calls is a ``(k, per_call)`` array, and the kernel runs once
        over it, on :data:`~divsamp.columns.COLUMN_MATH`, taking one column
        per ``take()``; the batches are joined once.  Like the drawer, the
        Box-Muller stream evaluates a whole pair for an odd last output and
        discards its second half.  Callers that need a list call ``tolist()``.
        """
        check_precision(p)
        check_count(count, "draw count")
        per_call = self.uniforms_per_draw * self._outputs
        calls = -(-count // self._outputs)
        batch = max(1, DRAW_BATCH_UNIFORMS // per_call)
        parts = []
        for start in range(0, calls, batch):
            k = min(batch, calls - start)
            grid = src.numerators(p, k * per_call).reshape(k, per_call)
            out = self._kernel(iter(grid.T).__next__, p, COLUMN_MATH)
            # a pair kernel's halves interleave in stream order
            parts.append(np.column_stack(out).ravel() if self._outputs > 1 else out)
        return np.concatenate(parts)[:count] if parts else np.empty(0)


# name -> (family, hardening, uniforms per draw per unit of divisibility,
# default divisibility or None for methods without one, outputs per kernel
# call, kernel for divisibility n).  Insertion order is registry order.
_REGISTRY: dict[str, tuple[str, str, int, int | None, int, Callable[..., _Kernel]]] = {
    "naive-laplace": ("laplace", "naive", 1, None, 1, lambda n: _naive_kernel),
    "box-muller": ("gaussian", "naive", 1, None, 2, lambda n: _bm_pair_kernel),
    "laplace-expdiff": ("laplace", "divisible", 2, None, 1, lambda n: _expdiff_kernel),
    "laplace-sqsum":
        ("laplace", "divisible", 8, 1, 1, lambda n: _four_gaussians_kernel(_sqsum, n)),
    "laplace-proddiff":
        ("laplace", "divisible", 8, 1, 1, lambda n: _four_gaussians_kernel(_proddiff, n)),
    "laplace-logcos": ("laplace", "divisible", 4, None, 1, lambda n: _LOGCOS),
    "laplace-logcos-sym": ("laplace", "divisible", 4, None, 1, lambda n: _LOGCOS_SYM),
    "secure-gaussian": ("gaussian", "divisible", 2, DEFAULT_DIVISIBILITY, 1,
                        lambda n: lambda take, p, lm: _gaussian_sum_kernel(take, p, lm, n)),
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
    family, hardening, per_unit, default_n, outputs, bind = _REGISTRY[name]
    if n is not None and default_n is None:
        raise ValueError(f"{name} takes no divisibility parameter")
    order = default_n if n is None else n
    return SamplerMethod(name, family, hardening, per_unit * (order or 1), bind(order), outputs)


def method_names() -> list[str]:
    """All registered sampler names, in registry order."""
    return list(_REGISTRY)
