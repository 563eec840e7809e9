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
    #: the :mod:`repro.kernels.native` entry point :meth:`apply_steps`
    #: reaches, or ``None`` when only NumPy computes it
    native_fold: str | None = None

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

        The tile kernels' mask-free fast path, and the one place a tile
        update picks C or NumPy: the compiled fold (:attr:`native_fold`)
        where it covers the call, with final bits, else :meth:`apply_k`
        with ``u[:, kk]``, ``v[kk, :]``, ``w[kk, kk]`` and no mask for
        ``kk = 0 .. pivot-1``.  Both leave the same bits, including when
        ``u``/``v``/``w`` alias ``x``.
        """
        from ..kernels import native  # repro.kernels imports this module

        if native.fold(self.native_fold, x, u, v, w if self.needs_w else None):
            return
        for kk in range(pivot):
            w_kk = None if w is None else w[kk, kk]
            self.apply_k(x, u[:, kk], v[kk, :], w_kk, None)

    def apply_corner(
        self,
        x: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray | None,
        steps: int,
        ri: int,
        cj: int,
    ) -> bool:
        """Steps ``kk = 0 .. steps-1`` of a masked tile update in one
        call, or ``False`` (``x`` untouched) when only the per-step path
        computes them — the default.

        Step ``kk`` updates the corner of rows ``>= kk + ri`` and columns
        ``>= kk + cj`` — :meth:`sigma_mask` at ``gk0 + kk`` for a tile at
        ``(gi0, gj0)``, with ``ri = gk0 - gi0 + 1`` and ``cj = gk0 - gj0
        + 1`` on the constrained axes and ``-steps`` (every row or
        column) on the others.  An override must leave exactly what
        :meth:`apply_k` with those masks leaves, aliasing included.
        """
        return False

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

    def k_active(self, gk: int, n: int) -> bool:
        """Whether global step ``gk`` performs any update on an n x n table.

        Specs with a restricted pivot range (e.g. GE, which only pivots
        over the coefficient columns) override this; the default runs
        every ``k``.  The active steps are a prefix ``[0, hi)`` with
        ``hi <= n`` — overrides must keep it so: the tile kernels decide
        a whole pivot range from its first and last step.
        """
        return 0 <= gk < n

    # ------------------------------------------------------------------
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
        self.native_fold = self.semiring.native_fold
        # Boolean folds are byte-wide and branch-free: much cheaper.
        self.update_weight = 0.4 if self.dtype == np.bool_ else 1.0
        self.name = name or f"semiring-gep[{self.semiring.name}]"

    def f(self, cij, cik, ckj, ckk):
        sr = self.semiring
        return sr.add(np.asarray(cij), sr.mul(np.asarray(cik), np.asarray(ckj)))[()]

    def apply_k(self, x, u_col, v_row, w_kk, mask):
        sr = self.semiring
        # Materialize the ⊙-combination first: u_col/v_row may alias x.
        cand = sr.mul(u_col[:, None], v_row[None, :])
        if mask is None:
            sr.add_inplace(x, cand)
        else:
            x[mask] = sr.add(x[mask], cand[mask])


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
    native_fold = "ge"

    def __init__(self, n_pivots: int | None = None) -> None:
        if n_pivots is not None and n_pivots < 0:
            raise ValueError("n_pivots must be non-negative")
        self.n_pivots = n_pivots

    def f(self, cij, cik, ckj, ckk):
        return cij - cik * ckj / ckk

    def apply_k(self, x, u_col, v_row, w_kk, mask):
        # The product materializes before the in-place subtraction, so
        # aliasing views (kernel cases A/B/C) are safe.
        update = u_col[:, None] * v_row[None, :]
        update /= w_kk
        if mask is None:
            x -= update
        else:
            x[mask] -= update[mask]

    def apply_corner(self, x, u, v, w, steps, ri, cj):
        # the compiled fold's k-outer loop, each step over its corner:
        # the same multiply / divide / subtract per cell as apply_k
        from ..kernels import native

        return native.fold(
            self.native_fold, x, u[:, :steps], v[:steps, :],
            w[:steps, :steps], corner=(ri, cj),
        )

    def k_active(self, gk, n):
        hi = n if self.n_pivots is None else min(n, self.n_pivots)
        return 0 <= gk < hi


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
