"""Shared test helpers, and a report header naming the libm under test."""

from __future__ import annotations

import hashlib
import math
import platform
import struct

import numpy as np

from divsamp.attack import BruteForceResult, count_feasible_checks
from divsamp.sampler import TWO_PI, _bm_radius
from divsamp.urand import BitSource


def libm_fingerprint() -> str:
    """A short SHA-256 of the bits ``math.log``, ``exp``, ``cos`` and ``sin`` return.

    Evaluated on a fixed list of inputs in (0, 700], so every value is
    finite.  The golden reports pin bits of the host's libm; two hosts with
    the same fingerprint agree on these inputs, and a golden-file failure on
    a host with another fingerprint points at its libm first.
    """
    xs = [math.ldexp(k, -6) for k in range(1, 44_800, 37)]
    bits = struct.pack(f"<{4 * len(xs)}d", *(f(x) for f in (math.log, math.exp, math.cos, math.sin)
                                             for x in xs))
    return hashlib.sha256(bits).hexdigest()[:16]


def pytest_report_header(config):
    libc, version = platform.libc_ver()
    return f"libm: {libc or 'unknown libc'} {version}, fingerprint {libm_fingerprint()}"


class ScriptedSource(BitSource):
    """A bit source that replays a fixed list of numerators.

    Lets tests force samplers onto exact grid points, on the scalar path
    (``getrandbits``) and the bulk one (``numerators``) alike.  The
    precision of every request is checked against the one the script was
    written for.
    """

    def __init__(self, numerators, p):
        super().__init__(seed=0)
        self._queue = list(numerators)
        self._p = p

    def getrandbits(self, k):
        assert k == self._p, f"script written for p={self._p}, sampler asked for {k}"
        assert self._queue, "script exhausted"
        return self._queue.pop(0)

    def numerators(self, p, k):
        ms = np.array([self.getrandbits(p) for _ in range(k)], np.uint64)
        self.uniforms_drawn += k
        self.bits_drawn += p * k
        return ms


class RecordingRng:
    """Wraps a generator, recording the size of every ``getrandbits`` request."""

    def __init__(self, rng):
        self._rng = rng
        self.requests = []

    def getrandbits(self, k):
        self.requests.append(k)
        return self._rng.getrandbits(k)


def reference_brute_force(n1, p, w):
    """The scalar single-output search that ``brute_force_single_gaussian`` replaced.

    Evaluates ``cos`` afresh for every grid angle of each row's two branch
    windows, and drops an angle both windows share through a per-row set.
    The table-driven search must return the same pairs, in the same order,
    and the same check count.  Arguments are not validated.
    """
    size = 1 << p
    # Wider windows reach no further grid points: start is already 0, and
    # every angle window then covers [0, size).
    w = min(w, size)
    top = size - 1
    pairs: list[tuple[int, int]] = []
    start = max(0, size - count_feasible_checks(n1, p) - w)
    ldexp = math.ldexp
    acos = math.acos
    cos = math.cos
    for m1 in range(start, size):
        r = _bm_radius(ldexp(m1, -p), math)
        if r == 0.0:
            # m1 = 0: the zero radius gives ±0.0 at every angle, and no other
            # radius does, because cos never vanishes exactly on the grid
            if n1 == 0.0:
                pairs += [(0, m2) for m2 in range(size)]
            continue
        t = n1 / r
        # |fl(r cos)| <= r, so an n1 beyond the radius has no preimage here
        if abs(t) > 1.0:
            continue
        theta = acos(t)
        m2_seen: set[int] = set()
        for u2_real in (theta / TWO_PI, 1.0 - theta / TWO_PI):
            center = round(ldexp(u2_real, p))
            for m2 in range(center - w, center + w + 1):
                if m2 < 0 or m2 > top or m2 in m2_seen:
                    continue
                m2_seen.add(m2)
                if r * cos(TWO_PI * ldexp(m2, -p)) == n1:
                    pairs.append((m1, m2))
    return BruteForceResult(pairs, size - start)
