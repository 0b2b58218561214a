"""Shared test helpers."""

from __future__ import annotations

import numpy as np

from divsamp.urand import BitSource


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
