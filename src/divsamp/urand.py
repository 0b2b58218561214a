"""Finite-precision uniform variates and the bit sources that feed them.

Samplers in this package never consume raw floats from a platform RNG.
They consume :class:`UniformVariate` values: dyadic rationals ``m * 2**-p``
with an integer numerator drawn from a :class:`BitSource`.  Working on the
numerator keeps every grid operation (rounding, neighbourhoods, bit splits)
exact, which is what the inversion attacks and the hardened samplers both
rely on.  The attacks round with the unchecked :func:`grid_round`;
:func:`round_to_variate` and :func:`neighbors` are its validated forms,
returning :class:`UniformVariate` values.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

MAX_PRECISION = 53
DEFAULT_PRECISION = 53

__all__ = [
    "MAX_PRECISION",
    "DEFAULT_PRECISION",
    "EntropyError",
    "UniformVariate",
    "BitSource",
    "next_uniform",
    "grid_round",
    "round_to_variate",
    "neighbors",
]


class EntropyError(RuntimeError):
    """The OS entropy source failed while a secure draw was in progress."""


def check_precision(p: int) -> int:
    """Validate a grid precision, returning it unchanged.

    Args:
        p: number of uniform bits per variate; must be an integer in
            ``[1, 53]`` so that every grid point is exactly representable
            as a double.

    Raises:
        ValueError: if ``p`` is out of range or not integral.
    """
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"precision must be an integer, got {p!r}")
    if not 1 <= p <= MAX_PRECISION:
        raise ValueError(f"precision must be in [1, {MAX_PRECISION}], got {p}")
    return p


def check_count(k: int, what: str) -> None:
    """Reject ``k`` unless it is a non-negative ``int``; ``what`` names it in the error."""
    # bool is an int subclass; True must not pass as 1
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {k!r}")


@dataclass(frozen=True)
class UniformVariate:
    """A uniform draw on the dyadic grid ``{m * 2**-p : 0 <= m < 2**p}``.

    The numerator is the ground truth; ``value`` is the exact float it
    denotes.  For ``p <= 53`` the conversion is lossless.
    """

    m: int
    p: int

    def __post_init__(self) -> None:
        check_precision(self.p)
        if not isinstance(self.m, int) or isinstance(self.m, bool):
            raise ValueError(f"numerator must be an integer, got {self.m!r}")
        if not 0 <= self.m < (1 << self.p):
            raise ValueError(
                f"numerator {self.m} out of range [0, 2**{self.p}) for precision {self.p}"
            )

    @property
    def value(self) -> float:
        """The exact real value ``m * 2**-p`` as a double."""
        return math.ldexp(self.m, -self.p)


class BitSource:
    """Uniform random bits, either OS-entropy backed or seeded.

    With ``seed=None`` bits come from the operating system's entropy pool
    (suitable when draws must be unpredictable).  With a non-negative
    integer seed, bits come from a deterministic high-quality generator
    (Mersenne Twister) so that experiments replay bit-identically; this
    generator is deliberately distinct from the secure one.

    Attributes:
        uniforms_drawn: number of uniform variates handed out so far.
        bits_drawn: grid bits handed out so far, ``p`` per precision-``p``
            uniform.  :meth:`numerators` may read more from the generator
            (whole 32-bit words), and that surplus is not counted.

    Raises:
        ValueError: for a negative, ``bool`` or non-``int`` seed, which
            ``random.Random`` would fold onto another (``-1`` onto ``1``).
    """

    def __init__(self, seed: int | None = None) -> None:
        if seed is None:
            self._rng: random.Random = random.SystemRandom()
        else:
            check_count(seed, "seed")
            self._rng = random.Random(seed)
        self.uniforms_drawn = 0
        self.bits_drawn = 0

    def getrandbits(self, k: int) -> int:
        """Return ``k`` uniform random bits as a non-negative integer.

        Raises:
            EntropyError: if the OS entropy source fails in secure mode.
        """
        try:
            return self._rng.getrandbits(k)
        except (NotImplementedError, OSError) as exc:
            raise EntropyError("system entropy source unavailable") from exc

    def numerators(self, p: int, k: int) -> np.ndarray:
        """The numerators of ``k`` successive :func:`next_uniform` calls at precision ``p``.

        Returns exactly what those calls would on a seeded source, advances
        both counters as they would (``bits_drawn`` by ``p * k``, though
        whole words are read), and leaves the generator where they would.
        Every source, seeded or secure, gets one ``getrandbits`` request
        for all ``k``.  Mersenne Twister serves a request in 32-bit words,
        least significant first: a ``p <= 32`` draw is one word shifted
        right by ``32 - p``, and a ``p > 32`` draw is a full low word plus
        a second word shifted right by ``64 - p``.  So one ``32 * k`` (or
        ``64 * k``) bit request holds the ``k`` draws' words in order, and
        they are split out with numpy: a ``p > 32`` draw's two words are
        one little-endian 64-bit word ``x``, and its numerator is
        ``(x & 0xFFFFFFFF) | (x >> (96 - p)) << 32``.  A subclass that
        replays fixed numerators overrides this method as well as
        ``getrandbits``.  The numerators come as a ``uint64`` array.
        """
        check_precision(p)
        check_count(k, "numerator count")
        words_per_draw = 1 if p <= 32 else 2
        raw = self.getrandbits(32 * words_per_draw * k).to_bytes(4 * words_per_draw * k, "little")
        if p <= 32:
            ms = np.frombuffer(raw, dtype="<u4").astype(np.uint64) >> (32 - p)
        else:
            x = np.frombuffer(raw, dtype="<u8")
            ms = (x & 0xFFFFFFFF) | (x >> (96 - p)) << 32
        self.uniforms_drawn += k
        self.bits_drawn += p * k
        return ms


def _take_numerator(src: BitSource, p: int) -> int:
    """One precision-``p`` numerator from ``src``, counted; ``p`` unchecked."""
    m = src.getrandbits(p)
    src.uniforms_drawn += 1
    src.bits_drawn += p
    return m


def next_uniform(src: BitSource, p: int = DEFAULT_PRECISION) -> UniformVariate:
    """Draw one uniform variate of precision ``p`` from ``src``.

    Consumes exactly ``p`` bits and updates the source's consumption
    counters, so callers can audit exactly how much randomness each
    sampler used.
    """
    check_precision(p)
    return UniformVariate(_take_numerator(src, p), p)


def grid_round(x: float, p: int) -> int:
    """Numerator of the precision-``p`` grid point nearest ``x``, clamped to the grid.

    Rounds half to even, as IEEE-754 arithmetic does, so the attacker's
    rounding agrees with the arithmetic being attacked.  Values rounding
    below 0 clamp to ``0``; values rounding to 1 or above clamp to the top
    numerator ``2**p - 1``.  Clamping (rather than erroring) is what the
    attack's neighbourhood search wants: a CDF value within an ulp of 1.0
    still identifies the top of the grid.  ``x`` must be finite and ``p``
    valid; :func:`round_to_variate` is the checked form.
    """
    m = round(math.ldexp(x, p))
    if m < 0:
        return 0
    return m if m < 1 << p else (1 << p) - 1


def round_to_variate(x: float, p: int) -> UniformVariate:
    """The grid point nearest ``x`` as a validated variate (see :func:`grid_round`)."""
    check_precision(p)
    if not math.isfinite(x):
        raise ValueError(f"cannot round non-finite value {x!r}")
    return UniformVariate(grid_round(x, p), p)


def neighbors(u: UniformVariate, w: int) -> list[UniformVariate]:
    """All grid points within ``w`` steps of ``u``, clamped to the grid edges.

    Returns an ascending list of distinct variates; at the boundary the
    window is truncated rather than wrapped.  ``w`` must be a non-negative ``int``.
    """
    check_count(w, "window")
    lo, hi = max(0, u.m - w), min((1 << u.p) - 1, u.m + w)
    return [UniformVariate(m, u.p) for m in range(lo, hi + 1)]
