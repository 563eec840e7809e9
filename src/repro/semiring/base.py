"""Closed-semiring abstractions used by GEP dynamic programs.

The paper (§V-A) frames Floyd-Warshall and transitive closure as path
problems over a closed semiring ``(S, ⊕, ⊙, 0̄, 1̄)`` in the sense of Aho,
Hopcroft & Ullman.  A :class:`Semiring` bundles the two binary operations
with their identities as *vectorized* NumPy operations so tile kernels can
apply one ``k``-step to a whole tile at once (the "offload to bare metal"
idiom the paper gets from Numba/NumPy).

Only the operations the GEP kernels need are defined: ``add`` (⊕),
``mul`` (⊙) and their identities.  A tile update's ``k``-step fold is
``SemiringGep.apply_k``'s, one step at a time (or the compiled fold of
:mod:`repro.kernels.native`, which leaves the same bits).
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

__all__ = ["Semiring", "SemiringError"]

class SemiringError(ValueError):
    """Raised for operations a particular semiring does not support."""


class Semiring(abc.ABC):
    """A closed semiring ``(S, ⊕, ⊙, zero, one)`` over NumPy arrays.

    Subclasses define the scalar structure.

    Attributes
    ----------
    name:
        Registry name, e.g. ``"tropical"``.
    dtype:
        Canonical NumPy dtype of table entries.
    zero:
        Additive identity (⊕-identity, ⊙-annihilator), e.g. ``+inf`` for
        the tropical semiring.
    one:
        Multiplicative identity, e.g. ``0.0`` for the tropical semiring.
    """

    #: registry name; subclasses override.
    name: str = "abstract"
    #: the :mod:`repro.kernels.native` entry point that folds this
    #: semiring's tiles, or ``None`` when only NumPy does
    native_fold: str | None = None

    def __init__(self, dtype: Any, zero: Any, one: Any) -> None:
        self.dtype = np.dtype(dtype)
        self.zero = self.dtype.type(zero)
        self.one = self.dtype.type(one)

    # ------------------------------------------------------------------
    # scalar/vector structure (subclass responsibility)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise semiring addition ``a ⊕ b`` (vectorized)."""

    @abc.abstractmethod
    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise semiring multiplication ``a ⊙ b`` (vectorized)."""

    def add_inplace(self, out: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``out ⊕= b`` — subclasses may override with a no-copy version."""
        out[...] = self.add(out, b)
        return out

    def asarray(self, a: Any) -> np.ndarray:
        """Coerce ``a`` to this semiring's dtype."""
        return np.asarray(a, dtype=self.dtype)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(name={self.name!r}, dtype={self.dtype}, "
            f"zero={self.zero!r}, one={self.one!r})"
        )
