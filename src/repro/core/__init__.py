"""The paper's primary contribution: GEP dynamic programs as tunable,
well-decomposable r-way R-DP algorithms on a Spark-like engine.

Layers (bottom up): problem specs (:mod:`~repro.core.gep`), grid-level
blocked execution (:mod:`~repro.core.blocked`), symbolic derivation of
r-way algorithms (:mod:`~repro.core.calls` / :mod:`~repro.core.
scheduling` / :mod:`~repro.core.autogen`), the distributed IM/CB drivers
(:mod:`~repro.core.dpspark`) and the public solvers
(:mod:`~repro.core.fwapsp`, :mod:`~repro.core.gaussian`,
:mod:`~repro.core.transitive`).
"""

from ..util import lazy_exports

#: each public name and the module that defines it, imported on first
#: use: the solvers import the engine, whose kernels import this
#: package's ``gep`` and ``blocked``, so nothing is imported up front
_EXPORTS = {
    name: module
    for module, names in {
        "api": ("run_gep",),
        "autogen": ("derive_by_inlining", "rway_algorithm", "two_way_algorithm"),
        "blocked": ("blocked_gep_inplace", "updated_tiles"),
        "dpspark": ("GepSparkSolver", "SolveReport", "make_kernel"),
        "fwapsp": ("floyd_warshall", "reconstruct_path", "semiring_closure"),
        "gaussian": (
            "PivotError", "back_substitute", "determinant", "forward_eliminate",
            "gaussian_solve", "lu_decompose",
        ),
        "gep": (
            "FloydWarshallGep", "GaussianEliminationGep", "GepSpec", "SemiringGep",
            "TransitiveClosureGep", "gep_reference", "gep_reference_vectorized",
        ),
        "parenthesis": (
            "matrix_chain_order", "parenthesis_solve", "render_parenthesization",
        ),
        "parenthesis_spark": ("parenthesis_solve_spark",),
        "transitive": ("transitive_closure",),
        "tuning": ("TuningAdvice", "adaptive_tune", "tune"),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)
__getattr__ = lazy_exports(__name__, _EXPORTS)
