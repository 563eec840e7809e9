"""The parenthesis-problem DP family — the paper's §VI extension target.

The paper's future work proposes extending the framework "to include
other data-intensive DP algorithms (beyond GEP)", naming the parenthesis
family (matrix-chain multiplication, optimal polygon triangulation, RNA
folding, optimal BSTs — §III) as the canonical next class.  Its
recurrence is *not* a GEP update::

    C[i, j] = min_{i < k < j} ( C[i, k] + C[k, j] + w(i, k, j) )

This module implements the family generically: an iterative
length-diagonal solver, a cache-friendlier recursive divide-&-conquer
evaluation (solve halves, then close spanning intervals) and one
concrete instance, matrix-chain order.  The tests validate both evaluation orders against brute-force
enumeration over all parenthesizations.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "parenthesis_solve",
    "matrix_chain_order",
    "render_parenthesization",
]

#: ``w(i, ks, j) -> array`` — vectorized over the candidate splits ``ks``.
CostFn = Callable[[int, np.ndarray, int], np.ndarray]


def _close_interval(c, split, i: int, j: int, cost: CostFn) -> None:
    ks = np.arange(i + 1, j)
    totals = c[i, ks] + c[ks, j] + cost(i, ks, j)
    best = int(np.argmin(totals))
    if totals[best] < c[i, j]:
        c[i, j] = totals[best]
        split[i, j] = int(ks[best])


def parenthesis_solve(
    n: int,
    cost: CostFn,
    *,
    method: str = "iterative",
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the parenthesis DP over intervals ``0 <= i < j <= n - 1``.

    Parameters
    ----------
    n:
        Number of interval endpoints (``n - 1`` unit intervals, which
        cost 0).
    cost:
        Vectorized merge cost ``w(i, ks, j)`` where ``ks`` is the array
        of candidate split points (return a scalar or an array
        broadcastable against ``ks``).
    method:
        ``"iterative"`` (length-diagonal sweeps, the classic loop nest)
        or ``"recursive"`` (divide-&-conquer over the interval tree —
        halves first, then spanning intervals by increasing length).

    Returns
    -------
    ``(C, split)``: the cost table (upper triangle) and the optimal
    split points (``-1`` on unit intervals).
    """
    if n < 2:
        raise ValueError("need at least two endpoints")
    c = np.full((n, n), np.inf)
    split = np.full((n, n), -1, dtype=np.int64)
    for i in range(n - 1):
        c[i, i + 1] = 0.0
    if method == "iterative":
        for length in range(2, n):
            for i in range(n - length):
                _close_interval(c, split, i, i + length, cost)
    elif method == "recursive":
        _solve_rec(c, split, 0, n - 1, cost)
    else:
        raise ValueError(f"unknown method {method!r}")
    return c, split


def _solve_rec(c, split, lo: int, hi: int, cost: CostFn) -> None:
    """Divide-&-conquer evaluation: solve both halves, then close the
    spanning intervals in increasing length (a spanning interval only
    needs strictly shorter intervals, all complete by its turn)."""
    if hi - lo <= 1:
        return
    mid = (lo + hi) // 2
    _solve_rec(c, split, lo, mid, cost)
    _solve_rec(c, split, mid, hi, cost)
    spanning = sorted(
        ((i, j) for i in range(lo, mid) for j in range(mid + 1, hi + 1)),
        key=lambda ij: ij[1] - ij[0],
    )
    for i, j in spanning:
        _close_interval(c, split, i, j, cost)


def render_parenthesization(split: np.ndarray, i: int, j: int) -> str:
    """Human-readable bracketing, e.g. ``((A0 A1) A2)``."""
    if j - i == 1:
        return f"A{i}"
    k = int(split[i, j])
    return (
        f"({render_parenthesization(split, i, k)} "
        f"{render_parenthesization(split, k, j)})"
    )


def matrix_chain_order(
    dims: list[int] | np.ndarray, *, method: str = "iterative"
) -> tuple[float, str]:
    """Optimal matrix-chain multiplication: minimal scalar multiplications.

    ``dims`` has length ``m + 1`` for a chain of ``m`` matrices where
    matrix ``t`` is ``dims[t] x dims[t+1]``.  Returns ``(cost,
    bracketing)``.
    """
    dims = np.asarray(dims, dtype=np.float64)
    if dims.ndim != 1 or dims.size < 2:
        raise ValueError("dims must list at least two dimensions")
    if (dims <= 0).any():
        raise ValueError("dimensions must be positive")

    def cost(i: int, ks: np.ndarray, j: int) -> np.ndarray:
        return dims[i] * dims[ks] * dims[j]

    c, split = parenthesis_solve(dims.size, cost, method=method)
    n = dims.size
    return float(c[0, n - 1]), render_parenthesization(split, 0, n - 1)
