"""R-Kleene: divide-&-conquer semiring closure (paper §III, refs [48,58,59]).

Several of the GPU results the paper surveys exploit the reduction of
all-pairs shortest paths to *matrix multiplication over a closed
semiring*: D'Alberto & Nicolau's R-Kleene computes the closure
``A* = ⊕_k A^k`` of an ``n x n`` semiring matrix by two-way recursion::

    A = [[A11, A12],      A11 <- A11*
         [A21, A22]]      A12 <- A11 A12 ;  A21 <- A21 A11
                          A22 <- (A22 ⊕ A21 A12)*
                          A12 <- A12 A22 ;  A21 <- A22 A21
                          A11 <- A11 ⊕ (A12' A21')    [via the updated blocks]

This module implements it generically over :mod:`repro.semiring` as an
*alternative algorithm* for the same problems the GEP solvers compute:
over the tropical semiring with zero diagonal, ``rkleene(A) ==
floyd_warshall(A)``; over the boolean semiring it is transitive closure.
The tests pin both equivalences down — a strong independent check of the
GEP machinery, since R-Kleene shares no code path with the blocked
A/B/C/D kernels above the semiring itself: it is built on semiring
``matmul``, and its base case on the semiring's ``fold_steps``.

Base cases run the unblocked semiring GEP fold, and the multiply-heavy
structure is why the approach maps well to GPUs (the survey's point).
"""

from __future__ import annotations

import numpy as np

from ..semiring import Semiring, get_semiring

__all__ = ["rkleene_closure", "apsp_rkleene", "transitive_closure_rkleene"]


def _base_closure(sr: Semiring, a: np.ndarray) -> np.ndarray:
    """Closure of a small block: the scalar Floyd-Warshall-style fold
    ``a[i,j] ⊕= a[i,k] ⊙ a[k,j]`` with reflexive ``one`` on the diagonal."""
    out = sr.add(a, sr.eye(a.shape[0]))
    # u and v alias the block itself, so this is fold_steps' sequential
    # branch: step k reads the row and column steps < k produced.
    return sr.fold_steps(out, out, out)


def rkleene_closure(
    table: np.ndarray,
    semiring: Semiring | str = "tropical",
    *,
    base_size: int = 32,
) -> np.ndarray:
    """Kleene closure ``A* = I ⊕ A ⊕ A² ⊕ ...`` by 2-way recursion.

    Parameters
    ----------
    table:
        Square semiring matrix (edge labels; ``semiring.zero`` = absent).
    semiring:
        A registered closed semiring (name or instance).  Must have a
        well-defined closure on the input (e.g. no negative cycles for
        the tropical semiring).
    base_size:
        Recursion cutoff; blocks at or below it use the iterative fold.

    Returns
    -------
    The closure matrix, with ``one`` on the diagonal (every vertex
    reaches itself with the empty path).
    """
    sr = get_semiring(semiring)
    a = sr.asarray(np.array(table, copy=True))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("closure requires a square matrix")
    if base_size < 1:
        raise ValueError("base_size must be positive")
    _rkleene(sr, a, base_size)
    return a


def _rkleene(sr: Semiring, a: np.ndarray, base: int) -> None:
    n = a.shape[0]
    if n <= base:
        a[...] = _base_closure(sr, a)
        return
    h = n // 2
    a11 = a[:h, :h]
    a12 = a[:h, h:]
    a21 = a[h:, :h]
    a22 = a[h:, h:]

    # Paths within the first vertex half.
    _rkleene(sr, a11, base)
    # Extend across the cut: first-half detours on either end.
    a12[...] = sr.add(a12, sr.matmul(a11, a12))
    a21[...] = sr.add(a21, sr.matmul(a21, a11))
    # Second-half paths may route through the first half.
    a22[...] = sr.add(a22, sr.matmul(a21, a12))
    _rkleene(sr, a22, base)
    # Re-extend the off-diagonal blocks through second-half closures.
    a12[...] = sr.matmul(a12, a22)
    a21[...] = sr.matmul(a22, a21)
    # First-half paths that detour through the second half: the updated
    # A12/A21 already carry the A11*/A22'* factors, and A22'* embeds the
    # multi-bounce 2->1->2 paths, so one product completes the closure.
    a11[...] = sr.add(a11, sr.matmul(a12, a21))


def apsp_rkleene(weights: np.ndarray, *, base_size: int = 32) -> np.ndarray:
    """All-pairs shortest paths via R-Kleene over the tropical semiring.

    Equivalent to :func:`repro.core.fwapsp.floyd_warshall` on graphs
    without negative cycles (the diagonal is clamped to 0 first).
    """
    w = np.array(weights, dtype=np.float64, copy=True)
    np.fill_diagonal(w, np.minimum(np.diag(w), 0.0))
    return rkleene_closure(w, "tropical", base_size=base_size)


def transitive_closure_rkleene(
    adjacency: np.ndarray, *, base_size: int = 32
) -> np.ndarray:
    """Reflexive-transitive closure via R-Kleene over the boolean semiring."""
    return rkleene_closure(
        np.asarray(adjacency).astype(bool), "boolean", base_size=base_size
    )
