"""The Schoeneman & Zola (ICPP'19) blocked FW-APSP baseline.

The paper's §V baseline: a Spark implementation of Venkataraman et
al.'s blocked all-pairs shortest-paths algorithm with *iterative*
kernels only (no recursion, no OpenMP offload) and the In-Memory
distribution.  The original handles undirected graphs; like the paper,
this port works on directed graphs — which contains the undirected case
(symmetric weight matrices stay symmetric under FW).

Implementation-wise the baseline is the IM + iterative corner of the
general GEP driver (the paper: "Our work improves over their FW-APSP
solver by using r-way R-DP algorithms as kernels instead of iterative
kernels, and extends their solution to a wider class of DP problems").
Exposing it as its own class keeps the benchmark comparisons honest and
the configuration (their published defaults) in one place.
"""

from __future__ import annotations

import numpy as np

from ..core.dpspark import GepSparkSolver, SolveReport, make_kernel
from ..core.gep import FloydWarshallGep
from ..sparkle import SparkleContext

__all__ = ["SchoenemanZolaAPSP"]


class SchoenemanZolaAPSP:
    """Blocked FW-APSP on Spark with iterative kernels (the baseline).

    Parameters
    ----------
    sc:
        Engine context.
    block_size:
        Tile edge length (their tunable "block decomposition parameter";
        ``r = ceil(n / block_size)``).

    The partition count is the context's ``default_parallelism``, whose
    default is their guideline (adopted by the paper): 2x total cores.
    """

    def __init__(
        self,
        sc: SparkleContext,
        *,
        block_size: int = 64,
    ) -> None:
        if block_size < 1:
            raise ValueError("block_size must be positive")
        self.sc = sc
        self.block_size = block_size

    def solve(
        self, weights: np.ndarray, *, directed: bool = True
    ) -> tuple[np.ndarray, SolveReport]:
        """All-pairs shortest path distances.

        ``directed=False`` asserts input symmetry (the original
        implementation's precondition) before running the directed
        solver.
        """
        w = np.array(weights, dtype=np.float64, copy=True)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weight matrix must be square")
        if not directed and not np.allclose(w, w.T, equal_nan=True):
            raise ValueError("undirected mode requires a symmetric matrix")
        np.fill_diagonal(w, np.minimum(np.diag(w), 0.0))
        spec = FloydWarshallGep()
        r = max(1, -(-w.shape[0] // self.block_size))
        solver = GepSparkSolver(
            spec,
            self.sc,
            r=r,
            kernel=make_kernel(spec, "iterative"),
            strategy="im",
        )
        return solver.solve(w)
