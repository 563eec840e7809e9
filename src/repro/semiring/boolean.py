"""Boolean semiring — transitive closure (Warshall's algorithm).

``({0,1}, or, and, 0, 1)``: the GEP instance over this semiring computes
reachability, which the paper lists (with Floyd's and Warshall's
algorithms) as a special case of Aho et al.'s closed-semiring path
framework.
"""

from __future__ import annotations

import numpy as np

from .base import Semiring, fold_steps_idempotent

__all__ = ["Boolean"]


class Boolean(Semiring):
    """The boolean semiring ``({False, True}, or, and, False, True)``."""

    name = "boolean"

    def __init__(self) -> None:
        super().__init__(np.bool_, False, True)

    def add(self, a, b):
        return np.logical_or(a, b)

    def add_inplace(self, out, b):
        np.logical_or(out, b, out=out)
        return out

    def mul(self, a, b):
        return np.logical_and(a, b)

    def fold_steps(self, x, u, v):
        """Fused and/or fold — exact in any order, and nothing to guard."""
        if not (x.dtype == u.dtype == v.dtype == self.dtype):
            return super().fold_steps(x, u, v)
        fold_steps_idempotent(x, u, v, np.logical_and, np.logical_or)
        return x

    def star(self, a):
        """``a* = True`` for every boolean ``a`` (closure always reachable)."""
        return True

    def matmul(self, a, b):
        """Boolean product via integer matmul (fast, exact)."""
        a = self.asarray(a)
        b = self.asarray(b)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
        return (a.astype(np.uint8) @ b.astype(np.uint8)) > 0
