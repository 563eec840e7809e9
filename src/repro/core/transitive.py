"""Warshall's transitive closure — the third GEP instance the paper names.

Boolean-semiring GEP over an adjacency matrix: ``t[i,j] |= t[i,k] and
t[k,j]``.  Shares every execution path (local blocked, IM, CB,
iterative/recursive kernels) with the two benchmark solvers.
"""

from __future__ import annotations

import numpy as np

from .api import run_gep
from .gep import TransitiveClosureGep

__all__ = ["transitive_closure"]


def _prepare_adjacency(adj: np.ndarray, reflexive: bool) -> np.ndarray:
    a = np.asarray(adj)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency matrix must be square")
    out = a.astype(bool).copy()
    if reflexive:
        np.fill_diagonal(out, True)
    return out


def transitive_closure(
    adjacency: np.ndarray,
    *,
    reflexive: bool = True,
    return_report: bool = False,
    **options,
):
    """Reachability matrix of a directed graph.

    Parameters
    ----------
    adjacency:
        (n, n) boolean (or truthy) matrix; ``adjacency[i, j]`` means an
        edge ``i → j``.
    reflexive:
        Include each vertex in its own closure (default True).
    **options:
        Engine options (see :func:`repro.core.api.run_gep`).
    """
    t = _prepare_adjacency(adjacency, reflexive)
    result, report = run_gep(TransitiveClosureGep(), t, **options)
    if return_report:
        return result, report
    return result
