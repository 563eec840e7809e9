"""Floyd-Warshall all-pairs shortest paths — the paper's first benchmark.

Works on dense weight matrices over the tropical semiring (``+inf`` = no
edge; the diagonal is forced to the semiring one, i.e. 0).  Directed
graphs are supported natively — the paper extends Schoeneman & Zola's
undirected implementation the same way.

>>> from repro.core.fwapsp import floyd_warshall
>>> import numpy as np
>>> w = np.array([[0., 2., np.inf], [np.inf, 0., 3.], [1., np.inf, 0.]])
>>> float(floyd_warshall(w)[0, 2])
5.0
"""

from __future__ import annotations

import numpy as np

from .api import run_gep
from .gep import FloydWarshallGep, SemiringGep

__all__ = [
    "floyd_warshall",
    "semiring_closure",
    "reconstruct_path",
]


def _prepare_weights(weights: np.ndarray) -> np.ndarray:
    w = np.array(weights, dtype=np.float64, copy=True)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("weight matrix must be square")
    np.fill_diagonal(w, np.minimum(np.diag(w), 0.0))
    return w


def floyd_warshall(weights: np.ndarray, *, return_report: bool = False, **options):
    """All-pairs shortest path distances of a directed weighted graph.

    Parameters
    ----------
    weights:
        (n, n) matrix; ``weights[i, j]`` is the length of edge ``i → j``
        (``+inf`` for no edge).  The diagonal is clamped to 0.
    return_report:
        Also return the :class:`~repro.core.dpspark.SolveReport`.
    **options:
        Engine options (see :func:`repro.core.api.run_gep`): ``engine``
        ("reference" | "local" | "spark"), ``r``, ``kernel``
        ("iterative" | "recursive"), ``r_shared``, ``base_size``,
        ``omp_threads``, ``strategy`` ("im" | "cb"), ``sc``, ...

    Returns
    -------
    (n, n) distance matrix ``d`` with ``d[i, j]`` the cost of the
    shortest ``i → j`` path (``+inf`` if unreachable).
    """
    w = _prepare_weights(weights)
    result, report = run_gep(FloydWarshallGep(), w, **options)
    if return_report:
        return result, report
    return result


def semiring_closure(
    table: np.ndarray, semiring, *, return_report: bool = False, **options
):
    """Aho-style path-problem closure over an arbitrary closed semiring.

    Generalizes :func:`floyd_warshall` (tropical) and transitive closure
    (boolean) to any registered semiring — the GEP fold
    ``c[i,j] ⊕= c[i,k] ⊙ c[k,j]`` for all ``k``.
    """
    spec = SemiringGep(semiring)
    t = spec.semiring.asarray(np.array(table, copy=True))
    result, report = run_gep(spec, t, **options)
    if return_report:
        return result, report
    return result


def reconstruct_path(
    dist: np.ndarray, weights: np.ndarray, src: int, dst: int, atol: float = 1e-9
) -> list[int]:
    """One shortest path ``src → dst`` from the distance matrix.

    Walks greedily: from ``u``, follow any edge ``(u, v)`` with
    ``w[u, v] + dist[v, dst] == dist[u, dst]``.  Returns the vertex list
    (``[src]`` when ``src == dst``); raises if ``dst`` is unreachable.
    """
    w = _prepare_weights(weights)
    n = w.shape[0]
    if not (0 <= src < n and 0 <= dst < n):
        raise IndexError("vertex out of range")
    if not np.isfinite(dist[src, dst]):
        raise ValueError(f"{dst} is not reachable from {src}")
    path = [src]
    u = src
    # A finite shortest path visits at most n vertices.
    for _ in range(n + 1):
        if u == dst:
            return path
        remaining = dist[u, dst]
        candidates = np.where(
            np.isfinite(w[u]) & (np.abs(w[u] + dist[:, dst] - remaining) <= atol)
        )[0]
        candidates = [int(v) for v in candidates if v != u]
        if not candidates:
            raise ValueError("distance matrix inconsistent with weights")
        u = candidates[0]
        path.append(u)
    raise ValueError("path reconstruction did not terminate (negative cycle?)")
