"""The real field viewed as a semiring ``(R, +, *, 0, 1)``.

Used for cross-checks and for counting-paths style GEP instances; the
Gaussian-elimination GEP update is *not* a semiring fold (its ``f`` divides
by the pivot), so GE is expressed through :class:`repro.core.gep.GepSpec`
directly rather than through a semiring.
"""

from __future__ import annotations

import numpy as np

from .base import Semiring

__all__ = ["RealField", "CountingSemiring"]


class RealField(Semiring):
    """``(R, +, *, 0, 1)`` with IEEE doubles."""

    name = "real"

    def __init__(self, dtype=np.float64) -> None:
        super().__init__(dtype, 0.0, 1.0)

    def add(self, a, b):
        return np.add(a, b)

    def add_inplace(self, out, b):
        np.add(out, b, out=out)
        return out

    def mul(self, a, b):
        return np.multiply(a, b)


class CountingSemiring(Semiring):
    """``(N, +, *, 0, 1)`` over int64 — counts walks of bounded length.

    Useful as an independently-checkable GEP instance in tests: the GEP
    fold over this semiring with FW's Σ_G counts, for each (i, j), the
    number of paths whose intermediate vertices come from a prefix set.
    """

    name = "counting"

    def __init__(self) -> None:
        super().__init__(np.int64, 0, 1)

    def add(self, a, b):
        return np.add(a, b)

    def add_inplace(self, out, b):
        np.add(out, b, out=out)
        return out

    def mul(self, a, b):
        return np.multiply(a, b)
