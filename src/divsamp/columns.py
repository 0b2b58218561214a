"""libm over numpy float64 columns, for arithmetic evaluated a batch at a time.

``+ - * /``, ``sqrt`` and ``ldexp`` are exactly rounded IEEE operations, so
on a float64 column they give the same bits as on Python floats.  numpy's
transcendental ufuncs are not the platform libm (``np.log`` differs from
``math.log`` in the last bit on some inputs), so ``log``, ``cos``, ``sin``,
``exp`` and ``erf`` here map the ``math`` function over the column.
:data:`COLUMN_MATH` has the names the sampler kernels call on ``math``.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np

__all__ = ["COLUMN_MATH"]


def _libm(f):
    """``f`` from ``math`` applied to every element of a float64 column."""
    def mapped(col: np.ndarray) -> np.ndarray:
        return np.fromiter(map(f, col.tolist()), np.float64, col.size)
    return mapped


COLUMN_MATH = SimpleNamespace(
    log=_libm(math.log),
    cos=_libm(math.cos),
    sin=_libm(math.sin),
    exp=_libm(math.exp),
    erf=_libm(math.erf),
    sqrt=np.sqrt,
    ldexp=np.ldexp,
)

