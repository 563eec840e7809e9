"""Gaussian elimination without pivoting — the paper's second benchmark.

Forward elimination is the GEP computation of Fig. 2; this module adds
the embedding of augmented systems into square GEP tables (with inert
virtual padding), back substitution, LU extraction and solving — the
full linear-algebra workflow the paper motivates GE with.

GE without pivoting is numerically valid for diagonally dominant or
symmetric positive-definite systems (§V-A); inputs outside that class
may divide by (near-)zero pivots, which is reported, not hidden.

>>> import numpy as np
>>> from repro.core.gaussian import gaussian_solve
>>> a = np.array([[4.0, 1.0], [1.0, 3.0]])
>>> x = gaussian_solve(a, np.array([1.0, 2.0]))
>>> np.allclose(a @ x, [1.0, 2.0])
True
"""

from __future__ import annotations

import numpy as np

from .api import run_gep
from .gep import GaussianEliminationGep

__all__ = [
    "forward_eliminate",
    "gaussian_solve",
    "lu_decompose",
    "determinant",
    "PivotError",
]


class PivotError(np.linalg.LinAlgError):
    """A pivot was (near-)zero: GE without pivoting is not applicable."""


def _check_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    return a


def _check_pivots(u: np.ndarray, rtol: float = 1e-12) -> None:
    d = np.abs(np.diag(u))
    scale = max(np.abs(u).max(), 1.0)
    if (d < rtol * scale).any():
        bad = int(np.argmin(d))
        raise PivotError(
            f"pivot {bad} is {d[bad]:.3e} (matrix needs pivoting; GE w/o "
            "pivoting requires diagonal dominance or SPD)"
        )


def forward_eliminate(
    a: np.ndarray,
    b: np.ndarray | None = None,
    *,
    return_report: bool = False,
    **options,
):
    """Run GEP forward elimination on ``[A | B]``.

    Embeds the (possibly augmented) matrix into a square GEP table — the
    paper's framing of an equation system as an ``n x n`` matrix whose
    trailing column(s) hold the right-hand side(s) — and eliminates with
    pivots ``k = 0 .. n-2``.

    Returns ``(U, Y)``: the upper-triangular eliminated ``A`` (lower
    entries hold the un-normalized multiplier values GEP leaves in
    place) and the eliminated RHS block (``None`` if ``b`` was).
    """
    a = _check_square(a)
    n = a.shape[0]
    if b is not None:
        b = np.asarray(b, dtype=np.float64)
        rhs = b[:, None] if b.ndim == 1 else b
        if rhs.shape[0] != n:
            raise ValueError("rhs rows must match matrix order")
        m = rhs.shape[1]
    else:
        m = 0
    size = n + m
    table = np.zeros((size, size))
    table[:n, :n] = a
    if m:
        table[:n, n:] = rhs
    idx = np.arange(n, size)
    table[idx, idx] = 1.0
    spec = GaussianEliminationGep(n_pivots=n - 1)
    done, report = run_gep(spec, table, **options)
    u = done[:n, :n]
    y = done[:n, n:] if m else None
    if b is not None and b.ndim == 1 and y is not None:
        y = y[:, 0]
    if return_report:
        return u, y, report
    return u, y


def back_substitute(u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve ``triu(U) x = y`` (vectorized back substitution)."""
    u = _check_square(u)
    _check_pivots(u)
    n = u.shape[0]
    y = np.asarray(y, dtype=np.float64)
    x = np.array(y, copy=True)
    vec = x.ndim == 1
    if vec:
        x = x[:, None]
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] -= u[i, i + 1 :] @ x[i + 1 :]
        x[i] /= u[i, i]
    return x[:, 0] if vec else x


def gaussian_solve(a: np.ndarray, b: np.ndarray, **options) -> np.ndarray:
    """Solve ``A x = b`` (or ``A X = B``) via GEP forward elimination.

    Accepts the same engine options as :func:`forward_eliminate`.
    """
    u, y = forward_eliminate(a, b, **options)
    assert y is not None
    return back_substitute(np.triu(u), y)


def lu_decompose(a: np.ndarray, **options) -> tuple[np.ndarray, np.ndarray]:
    """LU decomposition (no pivoting) from the GEP-eliminated table.

    GEP leaves ``c[i, k] = l_ik * u_kk`` below the diagonal (the value
    each entry had just before its elimination step), so
    ``L = tril(C, -1) / diag(C)`` with a unit diagonal, and
    ``U = triu(C)``; ``A = L @ U``.
    """
    u_full, _ = forward_eliminate(a, None, **options)
    _check_pivots(u_full)
    u = np.triu(u_full)
    l = np.tril(u_full, -1) / np.diag(u_full)[None, :]
    np.fill_diagonal(l, 1.0)
    return l, u


def determinant(a: np.ndarray, **options) -> float:
    """Determinant via the GE pivots (``prod(diag(U))``)."""
    u_full, _ = forward_eliminate(a, None, **options)
    return float(np.prod(np.diag(u_full)))
