"""Tropical (min,+) and (max,+) semirings.

Floyd-Warshall's all-pairs shortest path computes over the closed semiring
``(R ∪ {+inf}, min, +, +inf, 0)`` (paper §V-A).  Longest-path style
problems on DAGs use the dual ``(R ∪ {-inf}, max, +, -inf, 0)``.
"""

from __future__ import annotations

import numpy as np

from .base import Semiring, fold_steps_idempotent

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


def _fold_steps_guarded_once(
    sr: Semiring, x: np.ndarray, u: np.ndarray, v: np.ndarray, oplus: np.ufunc
) -> np.ndarray:
    """Tropical :meth:`Semiring.fold_steps` with the ``inf + (-inf)`` guard
    run once per call instead of once per step, with identical results.

    This is the NumPy fold: what a tile update runs where the compiled
    fold (:mod:`repro.kernels.native`, which guards every step itself)
    does not cover the call — no compiler, another layout — and the
    oracle the compiled fold is tested against.

    The fold runs unguarded through raw ``np.add`` / ``oplus``.
    ``np.minimum`` and ``np.maximum`` (and their reductions) propagate
    NaN, and once a cell of ``x`` is NaN every later ⊕ keeps it NaN, so a
    NaN anywhere in the final ``x`` is a complete detector for "some ⊙
    produced NaN (or an operand held one)".  No NaN means every
    candidate was NaN-free, so the per-step guard would have been a
    no-op at every step and the values are the guarded ones.  On a NaN
    the tile is restored and the call redone through the guarded
    sequential default — rare: it takes opposite infinities (or NaN) in
    the operands.  A stack ``(M, rows, cols)`` is checked once, whole;
    only the tiles holding a NaN are restored and redone, each alone —
    tiles of a stack never read one another, so the rest already hold
    their guarded values.

    Tables in another dtype than the semiring's stay on the default so
    ``out=`` never casts.
    """
    if not (x.dtype == u.dtype == v.dtype == sr.dtype):
        return Semiring.fold_steps(sr, x, u, v)
    pristine = x.copy()
    with np.errstate(invalid="ignore"):
        fold_steps_idempotent(x, u, v, np.add, oplus)
    if np.isnan(x).any():
        if x.ndim == 2:
            x[...] = pristine
            Semiring.fold_steps(sr, x, u, v)
        else:
            for m in np.flatnonzero(np.isnan(x).any(axis=(1, 2))):
                x[m] = pristine[m]
                Semiring.fold_steps(sr, x[m], u[m], v[m])
    return x


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

    def fold_steps(self, x, u, v):
        return _fold_steps_guarded_once(self, x, u, v, np.minimum)


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

    def fold_steps(self, x, u, v):
        return _fold_steps_guarded_once(self, x, u, v, np.maximum)
