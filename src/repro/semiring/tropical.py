"""Tropical (min,+) and (max,+) semirings.

Floyd-Warshall's all-pairs shortest path computes over the closed semiring
``(R ∪ {+inf}, min, +, +inf, 0)`` (paper §V-A).  Longest-path style
problems on DAGs use the dual ``(R ∪ {-inf}, max, +, -inf, 0)``.
"""

from __future__ import annotations

import numpy as np

from .base import Semiring

__all__ = ["MinPlus", "MaxPlus"]


def _plus_with_infinities(a: np.ndarray, b: np.ndarray, annihilator: float) -> np.ndarray:
    """``a + b`` where ``annihilator + x == annihilator`` for every x.

    IEEE arithmetic already gives ``inf + finite == inf``; the only case
    needing care is ``inf + (-inf) -> nan``, which must resolve to the
    semiring zero (the annihilator).  We silence the invalid-op warning for
    that deliberate case only.  The common, NaN-free result is detected
    with the ``.any()`` method (``np.any`` costs about one more ufunc
    call on a small operand) and the mask is built again only on the
    rare path.
    """
    with np.errstate(invalid="ignore"):
        out = np.add(a, b)
    if np.isnan(out).any():
        out = np.where(np.isnan(out), annihilator, out)
    return out


class MinPlus(Semiring):
    """The tropical semiring ``(R ∪ {+inf}, min, +, +inf, 0)``."""

    name = "tropical"
    native_fold = "minplus"

    def __init__(self, dtype=np.float64) -> None:
        super().__init__(dtype, np.inf, 0.0)

    def add(self, a, b):
        return np.minimum(a, b)

    def add_inplace(self, out, b):
        np.minimum(out, b, out=out)
        return out

    def mul(self, a, b):
        return _plus_with_infinities(np.asarray(a), np.asarray(b), self.zero)


class MaxPlus(Semiring):
    """The dual tropical semiring ``(R ∪ {-inf}, max, +, -inf, 0)``."""

    name = "maxplus"
    native_fold = "maxplus"

    def __init__(self, dtype=np.float64) -> None:
        super().__init__(dtype, -np.inf, 0.0)

    def add(self, a, b):
        return np.maximum(a, b)

    def add_inplace(self, out, b):
        np.maximum(out, b, out=out)
        return out

    def mul(self, a, b):
        return _plus_with_infinities(np.asarray(a), np.asarray(b), self.zero)
