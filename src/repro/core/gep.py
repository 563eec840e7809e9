"""The Gaussian Elimination Paradigm (GEP) problem specification.

A GEP computation (paper Fig. 1) processes an ``n x n`` table ``c``::

    for k in range(n):
        for i in range(n):
            for j in range(n):
                if sigma(i, j, k):
                    c[i, j] = f(c[i, j], c[i, k], c[k, j], c[k, k])

A :class:`GepSpec` bundles ``f`` and the update set ``Σ_G`` (``sigma``)
together with a *vectorized* one-``k``-step form (:meth:`GepSpec.apply_k`)
used by the tile kernels.  Vectorizing a whole ``k``-step is semantically
equal to the scalar triple loop for every spec shipped here, because at
step ``k`` the values ``c[i,k]``, ``c[k,j]`` and ``c[k,k]`` are fixed
points of that step's updates (GE never updates row/column ``k`` at step
``k`` thanks to Σ_G; for semiring folds with ``c[k,k] == one`` the updates
of row/column ``k`` are no-ops).  The property-based tests exercise this
equivalence against the honest scalar loop.

Axis constraints (:attr:`GepSpec.constrains_i` / ``constrains_j``) record
whether Σ_G restricts the updated rows/columns to ``> k``; they drive the
loop ranges of every blocked and recursive algorithm derived from the
spec (paper Fig. 4 vs. the unrestricted FW-APSP ranges).
"""

from __future__ import annotations

import abc
from typing import Any

import numpy as np

from ..semiring import Semiring, get_semiring

__all__ = [
    "GepSpec",
    "SemiringGep",
    "FloydWarshallGep",
    "TransitiveClosureGep",
    "GaussianEliminationGep",
    "gep_reference",
    "gep_reference_vectorized",
]


class GepSpec(abc.ABC):
    """Specification of one GEP computation: ``f``, ``Σ_G`` and metadata.

    Attributes
    ----------
    name:
        Human-readable identifier, e.g. ``"fw-apsp"``.
    dtype:
        Table dtype.
    constrains_i / constrains_j:
        Whether Σ_G restricts the update set to ``i > k`` / ``j > k``.
        (All GEP problems in the paper constrain either both axes — GE —
        or neither — FW-APSP and transitive closure.)
    """

    name: str = "abstract-gep"
    dtype: np.dtype = np.dtype(np.float64)
    constrains_i: bool = False
    constrains_j: bool = False
    #: whether ``f`` actually reads ``c[k,k]``.  Semiring folds (FW,
    #: transitive closure) do not, so their D kernels need no pivot-tile
    #: copy — the "lighter dependencies" (paper Fig. 7) that make IM the
    #: better strategy for FW-APSP while GE favours CB.
    needs_w: bool = True
    #: relative per-cell-update cost (1.0 = FW's min/+ on doubles); used
    #: by the cluster cost model to derive kernel rates per problem
    update_weight: float = 1.0

    # ------------------------------------------------------------------
    # scalar semantics (reference / Σ_G)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def f(self, cij: Any, cik: Any, ckj: Any, ckk: Any) -> Any:
        """The scalar GEP update function."""

    def sigma(self, i: int, j: int, k: int) -> bool:
        """Membership of ``<i, j, k>`` in the update set Σ_G."""
        if self.constrains_i and not i > k:
            return False
        if self.constrains_j and not j > k:
            return False
        return True

    # ------------------------------------------------------------------
    # vectorized one-k-step semantics (tile kernels)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def apply_k(
        self,
        x: np.ndarray,
        u_col: np.ndarray,
        v_row: np.ndarray,
        w_kk: Any,
        mask: np.ndarray | None,
    ) -> None:
        """In-place update of tile ``x`` for one global ``k`` step.

        ``x[a, b] = f(x[a, b], u_col[a], v_row[b], w_kk)`` wherever
        ``mask`` is true (``mask is None`` means everywhere).  ``u_col``
        and ``v_row`` may be *views aliasing ``x``* (kernel cases A/B/C);
        implementations must therefore materialize any combination of
        ``u_col``/``v_row`` before writing into ``x``.

        ``x`` may be a stack ``(M, rows, cols)`` with ``u_col`` ``(M,
        rows)`` and ``v_row`` ``(M, cols)`` whose tiles share ``w_kk``
        and the ``(rows, cols)`` mask: index from the last axes
        (``u_col[..., :, None]``, ``x[..., mask]``), so every tile gets
        the operations it would get alone.
        """

    def apply_steps(
        self,
        x: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray | None,
        pivot: int,
    ) -> None:
        """All ``pivot`` steps of one tile update, unmasked, in ``k`` order.

        The tile kernels' mask-free fast path: equal to calling
        :meth:`apply_k` with ``u[:, kk]``, ``v[kk, :]``, ``w[kk, kk]`` and
        no mask for ``kk = 0 .. pivot-1`` — which is the default.
        Overrides may fuse the steps but must keep that result exactly,
        including when ``u``/``v``/``w`` alias ``x``.

        ``x`` may be a stack ``(M, rows, cols)`` with ``u`` ``(M, rows,
        pivot)``, ``v`` ``(M, pivot, cols)`` and ``w`` one pivot tile for
        the whole stack or ``(M, pivot, pivot)``: every tile gets exactly
        the update it would get alone.  The default takes them one by
        one.
        """
        if x.ndim == 3:
            for m in range(x.shape[0]):
                wm = w if w is None or w.ndim == 2 else w[m]
                self.apply_steps(x[m], u[m], v[m], wm, pivot)
            return
        w_diag = None if w is None else w.diagonal()
        for kk in range(pivot):
            self.apply_k(
                x, u[:, kk], v[kk, :], None if w is None else w_diag[kk], None
            )

    def sigma_mask(
        self, gi0: int, gj0: int, shape: tuple[int, int], gk: int
    ) -> np.ndarray | None:
        """Boolean Σ_G mask for a tile at global offset ``(gi0, gj0)``.

        Returns ``None`` when every cell of the tile is in Σ_G for step
        ``gk`` (the common fast path), so kernels can skip masking.
        """
        mi, mj = shape
        row_ok = (not self.constrains_i) or gi0 > gk
        col_ok = (not self.constrains_j) or gj0 > gk
        if row_ok and col_ok:
            return None
        if self.constrains_i and gi0 + mi - 1 <= gk:
            return np.zeros(shape, dtype=bool)
        if self.constrains_j and gj0 + mj - 1 <= gk:
            return np.zeros(shape, dtype=bool)
        rows = np.ones(mi, dtype=bool)
        cols = np.ones(mj, dtype=bool)
        if self.constrains_i:
            rows = (gi0 + np.arange(mi)) > gk
        if self.constrains_j:
            cols = (gj0 + np.arange(mj)) > gk
        return rows[:, None] & cols[None, :]

    def sigma_mask_free(
        self, gi0: int, gj0: int, shape: tuple[int, int], gk_lo: int, gk_hi: int
    ) -> bool:
        """True when :meth:`sigma_mask` is ``None`` for *every* ``gk`` in
        ``[gk_lo, gk_hi)`` — the tile kernels' fast-path predicate.

        The base Σ_G constraints (``i > k`` / ``j > k``) only get harder
        as ``gk`` grows (``gi0 > gk`` / ``gj0 > gk`` are antitone in
        ``gk``), so mask-freedom at the largest step implies it for the
        whole range; one check replaces a per-``kk`` probe.  Overrides
        with a non-monotone ``sigma_mask`` must override this too.
        """
        if gk_hi <= gk_lo:
            return True
        return self.sigma_mask(gi0, gj0, shape, gk_hi - 1) is None

    def sigma_mask_shared(
        self, offsets, shape: tuple[int, int], gk_lo: int, gk_hi: int
    ) -> bool:
        """True when tiles of ``shape`` at ``offsets`` (``(gi0, gj0)``
        pairs) get the same :meth:`sigma_mask` at every ``gk`` in
        ``[gk_lo, gk_hi)`` — what lets a stack of them take the masked
        per-step path as one.

        Per axis, the tiles share their offset (a pivot row's B panel has
        one ``gi0``, a pivot column's C panel one ``gj0``) or that axis
        is unconstrained over the range for every tile (``> k`` holds at
        the largest step, as in :meth:`sigma_mask_free`).  Overrides with
        a non-monotone ``sigma_mask`` must override this too.
        """
        if gk_hi <= gk_lo:
            return True
        last = gk_hi - 1

        def alike(starts, constrained):
            return not constrained or len(set(starts)) == 1 or min(starts) > last

        gi0s, gj0s = zip(*offsets)
        return alike(gi0s, self.constrains_i) and alike(gj0s, self.constrains_j)

    def k_active(self, gk: int, n: int) -> bool:
        """Whether global step ``gk`` performs any update on an n x n table.

        Specs with a restricted pivot range (e.g. GE, which only pivots
        over the coefficient columns) override this; the default runs
        every ``k``.
        """
        return 0 <= gk < n

    # ------------------------------------------------------------------
    def pad_value(self, i: int, j: int) -> Any:
        """Value for virtually-padded cell ``(i, j)`` (paper §IV-A).

        Padding must be inert: padded rows/columns may never change the
        result on the original index range.  The default (zero off the
        diagonal, one on it) is correct for semiring specs (isolated
        vertices) and is overridden where needed.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# Semiring-fold GEP instances (FW-APSP, transitive closure, ...)
# ----------------------------------------------------------------------
class SemiringGep(GepSpec):
    """GEP instance ``c[i,j] = c[i,j] ⊕ (c[i,k] ⊙ c[k,j])`` over a semiring.

    Σ_G is the full index cube (no axis constraints): Floyd-Warshall,
    Warshall transitive closure and the other Aho-style path problems all
    take this shape.  ``c[k,k]`` is read but does not influence the
    update, exactly as in the paper's FW recurrence.
    """

    constrains_i = False
    constrains_j = False
    needs_w = False

    def __init__(self, semiring: Semiring | str, name: str | None = None) -> None:
        self.semiring = get_semiring(semiring)
        self.dtype = self.semiring.dtype
        # Boolean folds are byte-wide and branch-free: much cheaper.
        self.update_weight = 0.4 if self.dtype == np.bool_ else 1.0
        self.name = name or f"semiring-gep[{self.semiring.name}]"

    def f(self, cij, cik, ckj, ckk):
        sr = self.semiring
        return sr.add(np.asarray(cij), sr.mul(np.asarray(cik), np.asarray(ckj)))[()]

    def apply_k(self, x, u_col, v_row, w_kk, mask):
        sr = self.semiring
        # Materialize the ⊙-combination first: u_col/v_row may alias x.
        cand = sr.mul(u_col[..., :, None], v_row[..., None, :])
        if mask is None:
            sr.add_inplace(x, cand)
        else:
            x[..., mask] = sr.add(x[..., mask], cand[..., mask])

    def apply_steps(self, x, u, v, w, pivot):
        # One semiring product ``x ⊕= u ⊗ v`` instead of ``pivot`` rank-1
        # steps; the semiring decides how far it may fuse them.
        self.semiring.fold_steps(x, u, v)

    def pad_value(self, i, j):
        return self.semiring.one if i == j else self.semiring.zero


class FloydWarshallGep(SemiringGep):
    """FW-APSP: the tropical-semiring GEP instance (paper Fig. 5)."""

    def __init__(self) -> None:
        super().__init__("tropical", name="fw-apsp")


class TransitiveClosureGep(SemiringGep):
    """Warshall's transitive closure: the boolean-semiring GEP instance."""

    def __init__(self) -> None:
        super().__init__("boolean", name="transitive-closure")


# ----------------------------------------------------------------------
# Gaussian elimination without pivoting
# ----------------------------------------------------------------------
class GaussianEliminationGep(GepSpec):
    """GE without pivoting (paper Fig. 2).

    ``f(cij, cik, ckj, ckk) = cij - cik * ckj / ckk`` with
    ``Σ_G = {<i, j, k> : i > k and j > k}`` and ``k`` restricted to the
    pivot range ``[0, n_pivots)``.

    ``n_pivots`` bounds the pivot loop: eliminating a ``p``-unknown
    system embedded in an ``n x n`` (augmented, possibly padded) table
    requires pivots ``k = 0 .. p-2`` only.  ``None`` means "all of
    ``n``", which on a square table is harmless — the trailing steps
    update empty index sets or padded cells only.
    """

    name = "gaussian-elimination"
    dtype = np.dtype(np.float64)
    constrains_i = True
    constrains_j = True
    update_weight = 1.6  # divide + multiply + subtract per cell

    def __init__(self, n_pivots: int | None = None) -> None:
        if n_pivots is not None and n_pivots < 0:
            raise ValueError("n_pivots must be non-negative")
        self.n_pivots = n_pivots

    def f(self, cij, cik, ckj, ckk):
        return cij - cik * ckj / ckk

    def apply_k(self, x, u_col, v_row, w_kk, mask):
        # The product materializes before the in-place subtraction, so
        # aliasing views (kernel cases A/B/C) are safe.
        update = u_col[..., :, None] * v_row[..., None, :]
        update /= w_kk
        if mask is None:
            x -= update
        else:
            x[..., mask] -= update[..., mask]

    def apply_steps(self, x, u, v, w, pivot):
        # The same multiply / divide / subtract per step as apply_k, in
        # the same order, through one reused buffer.  GE steps are never
        # re-associated: floating-point subtraction rounds.  The buffer
        # is complete before ``x`` is written, so aliasing stays safe.
        # All three are elementwise, so over a stack (leading axis) each
        # tile sees the operations it would see alone, step by step.
        update = np.empty(x.shape, dtype=np.result_type(u, v))
        w_diag = w.diagonal(axis1=-2, axis2=-1)
        if w_diag.ndim == 2:  # a pivot tile per stacked tile
            w_diag = w_diag.T[:, :, None, None]
        for kk in range(pivot):
            np.multiply(u[..., kk, None], v[..., None, kk, :], out=update)
            update /= w_diag[kk]
            x -= update

    def k_active(self, gk, n):
        hi = n if self.n_pivots is None else min(n, self.n_pivots)
        return 0 <= gk < hi

    def pad_value(self, i, j):
        """Unit diagonal, zero elsewhere: padded pivots divide by 1 and a
        zero ``c[i,k]``/``c[k,j]`` factor keeps every padded update inert."""
        return 1.0 if i == j else 0.0


# ----------------------------------------------------------------------
# Reference executors
# ----------------------------------------------------------------------
def gep_reference(spec: GepSpec, table: np.ndarray) -> np.ndarray:
    """Honest scalar triple-loop GEP (paper Fig. 1) — O(n^3) Python.

    The ground truth every kernel and every distributed execution is
    validated against.  Returns a new array.
    """
    c = np.array(table, dtype=spec.dtype, copy=True)
    n = c.shape[0]
    if c.shape[0] != c.shape[1]:
        raise ValueError("GEP reference requires a square table")
    for k in range(n):
        if not spec.k_active(k, n):
            continue
        for i in range(n):
            for j in range(n):
                if spec.sigma(i, j, k):
                    c[i, j] = spec.f(c[i, j], c[i, k], c[k, j], c[k, k])
    return c


def gep_reference_vectorized(spec: GepSpec, table: np.ndarray) -> np.ndarray:
    """Per-``k`` vectorized GEP over the whole table.

    This is the "iterative kernel offloaded to bare metal" formulation
    (the paper's Numba/NumPy path) applied unblocked; used both as a fast
    reference and as the building block of the iterative tile kernels.
    """
    c = np.array(table, dtype=spec.dtype, copy=True)
    n = c.shape[0]
    if c.shape[0] != c.shape[1]:
        raise ValueError("GEP reference requires a square table")
    for k in range(n):
        if not spec.k_active(k, n):
            continue
        mask = spec.sigma_mask(0, 0, (n, n), k)
        spec.apply_k(c, c[:, k], c[k, :], c[k, k], mask)
    return c
