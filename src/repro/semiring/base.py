"""Closed-semiring abstractions used by GEP dynamic programs.

The paper (§V-A) frames Floyd-Warshall and transitive closure as path
problems over a closed semiring ``(S, ⊕, ⊙, 0̄, 1̄)`` in the sense of Aho,
Hopcroft & Ullman.  A :class:`Semiring` bundles the two binary operations
with their identities as *vectorized* NumPy operations so tile kernels can
apply one ``k``-step to a whole tile at once (the "offload to bare metal"
idiom the paper gets from Numba/NumPy).

Only the operations the GEP kernels need are defined: ``add`` (⊕),
``mul`` (⊙), their identities and the in-place ``k``-step fold.
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

__all__ = ["Semiring", "SemiringError"]

#: upper bound, in elements, on the (k, rows, cols) broadcast temporary of
#: :func:`fold_steps_idempotent` — 256 KiB of doubles, cache-resident: all
#: 8 pivot steps of an 8x8 tile at once, 3 at a time on 96x96.
_FOLD_CHUNK_ELEMS = 32768


class SemiringError(ValueError):
    """Raised for operations a particular semiring does not support."""


def fold_steps_idempotent(
    x: np.ndarray, u: np.ndarray, v: np.ndarray, otimes: np.ufunc, oplus: np.ufunc
) -> None:
    """Raw-ufunc :meth:`Semiring.fold_steps` for an idempotent, exact ⊕.

    ``x`` is one ``(rows, cols)`` tile or a stack ``(M, rows, cols)`` of
    them with ``u`` ``(M, rows, K)`` and ``v`` ``(M, K, cols)``; the last
    two axes are a tile's, so a 2-D tile is the stack of one.

    *Independent operands* (neither ``u`` nor ``v`` can share memory with
    ``x`` — kernel case D): the rank-1 steps are taken a chunk at a
    time as one ``(k, [M,] rows, cols)`` broadcast ``u[i,k] ⊙ v[k,j]``,
    ⊕-reduced over ``k`` and folded into ``x`` once per chunk.  ``min``,
    ``max`` and ``or`` pick one of their operands and never round, and
    NumPy reduces a non-contiguous leading axis by repeated elementwise
    ⊕ (same tie-breaking on ``±0.0`` as the sequential loop — ``k`` is
    the leading axis whatever the stack depth), so the re-association
    changes no bit.  The chunk is bounded by ``_FOLD_CHUNK_ELEMS``.

    *Aliased operands* (decided by identity, then conservatively by
    ``np.may_share_memory``), single-cell tiles (whose k axis would be
    the contiguous one) and folds too large for a two-step chunk keep
    sequential k order through one preallocated buffer: two ufunc calls
    per step, the ⊙ materialized before ``x`` is written.

    Nothing here guards ``inf + (-inf)``; the tropical semirings wrap
    this call in their once-per-call guard.
    """
    pivot = u.shape[-1]
    chunk = min(pivot, _FOLD_CHUNK_ELEMS // max(1, x.size))
    if (
        x.shape[-2] * x.shape[-1] < 2
        or chunk < 2
        or u is x
        or v is x
        or np.may_share_memory(x, u)
        or np.may_share_memory(x, v)
    ):
        buf = np.empty_like(x)
        for k in range(pivot):
            otimes(u[..., k, None], v[..., None, k, :], out=buf)
            oplus(x, buf, out=x)
        return
    buf = np.empty((chunk,) + x.shape, dtype=x.dtype)
    red = np.empty_like(x)
    if x.ndim == 2:
        ut, vt = u.T[:, :, None], v[:, None, :]
    else:  # k leads, then the stack axis
        ut, vt = u.transpose(2, 0, 1)[..., None], v.transpose(1, 0, 2)[:, :, None, :]
    for k0 in range(0, pivot, chunk):
        k1 = min(k0 + chunk, pivot)
        cand = buf[: k1 - k0]
        otimes(ut[k0:k1], vt[k0:k1], out=cand)
        oplus.reduce(cand, axis=0, out=red)
        oplus(x, red, out=x)


class Semiring(abc.ABC):
    """A closed semiring ``(S, ⊕, ⊙, zero, one)`` over NumPy arrays.

    Subclasses define the scalar structure; this base class supplies the
    sequential ``k``-step fold every GEP kernel runs.

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

    def fold_steps(self, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``x[i,j] ⊕= u[i,k] ⊙ v[k,j]`` for ``k = 0 .. K-1`` in order, in place.

        ``u`` is ``(rows, K)`` and ``v`` is ``(K, cols)`` — or all three
        carry one leading stack axis, each tile folded with its own
        operands; either may alias ``x`` (the GEP kernels' A/B/C cases),
        so every step materializes its ⊙-combination before ⊕-ing it
        into ``x``.  The default is the sequential rank-1 loop, valid
        for any semiring; idempotent semirings override it with
        :func:`fold_steps_idempotent`.
        """
        for k in range(u.shape[-1]):
            self.add_inplace(x, self.mul(u[..., k, None], v[..., None, k, :]))
        return x

    def asarray(self, a: Any) -> np.ndarray:
        """Coerce ``a`` to this semiring's dtype."""
        return np.asarray(a, dtype=self.dtype)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(name={self.name!r}, dtype={self.dtype}, "
            f"zero={self.zero!r}, one={self.one!r})"
        )
