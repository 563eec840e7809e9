"""repro — reproduction of "Efficient Execution of Dynamic Programming
Algorithms on Apache Spark" (Javanmard et al., IEEE CLUSTER 2020).

Subpackages
-----------
``repro.core``
    GEP problem specs, blocked/recursive execution, the symbolic r-way
    derivation machinery, distributed IM/CB drivers and public solvers
    (``floyd_warshall``, ``gaussian_solve``, ``transitive_closure``).
``repro.sparkle``
    A from-scratch in-process Apache-Spark-model engine (RDDs, lazy
    lineage, DAG scheduler, shuffle, partitioners, broadcast).
``repro.kernels``
    Iterative and parametric r-way recursive divide-&-conquer tile
    kernels, the simulated OpenMP runtime, and an ideal-cache simulator.
``repro.poly``
    The polyhedral-lite derivation of the kernels (methodology 2).
``repro.cluster``
    Cluster configs (the paper's two testbeds) and the calibrated cost
    model used to regenerate the paper's tables and figures.
``repro.workloads`` / ``repro.baselines`` / ``repro.experiments``
    Synthetic inputs, comparison baselines, and one module per paper
    table/figure (``python -m repro.experiments``).

Quickstart
----------
>>> import numpy as np
>>> from repro import floyd_warshall
>>> w = np.array([[0, 3, np.inf], [np.inf, 0, 1], [2, np.inf, 0.0]])
>>> float(floyd_warshall(w)[0, 2])
4.0
"""

from .util import lazy_exports

__version__ = "1.0.0"

#: each public name and the subpackage that defines it, imported on
#: first use: ``import repro.semiring`` loads the semirings, not the engine
_EXPORTS = {
    "SparkleContext": "sparkle",
    "GepSpec": "core",
    "SemiringGep": "core",
    "FloydWarshallGep": "core",
    "GaussianEliminationGep": "core",
    "TransitiveClosureGep": "core",
    "floyd_warshall": "core",
    "gaussian_solve": "core",
    "lu_decompose": "core",
    "transitive_closure": "core",
    "semiring_closure": "core",
    "run_gep": "core",
    "tune": "core",
}

__all__ = ["__version__", *_EXPORTS]
__getattr__ = lazy_exports(__name__, _EXPORTS)
