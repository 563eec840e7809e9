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

from .api import run_gep
from .autogen import derive_by_inlining, rway_algorithm, two_way_algorithm
from .blocked import blocked_gep_inplace, updated_tiles
from .dpspark import GepSparkSolver, SolveReport, make_kernel
from .fwapsp import floyd_warshall, reconstruct_path, semiring_closure
from .gaussian import (
    PivotError,
    back_substitute,
    determinant,
    forward_eliminate,
    gaussian_solve,
    lu_decompose,
)
from .gep import (
    FloydWarshallGep,
    GaussianEliminationGep,
    GepSpec,
    SemiringGep,
    TransitiveClosureGep,
    gep_reference,
    gep_reference_vectorized,
)
from .parenthesis import (
    matrix_chain_order,
    parenthesis_solve,
    render_parenthesization,
)
from .parenthesis_spark import parenthesis_solve_spark
from .transitive import transitive_closure
from .tuning import TuningAdvice, adaptive_tune, tune

__all__ = [
    "GepSpec",
    "SemiringGep",
    "FloydWarshallGep",
    "GaussianEliminationGep",
    "TransitiveClosureGep",
    "gep_reference",
    "gep_reference_vectorized",
    "run_gep",
    "blocked_gep_inplace",
    "updated_tiles",
    "rway_algorithm",
    "two_way_algorithm",
    "derive_by_inlining",
    "GepSparkSolver",
    "SolveReport",
    "make_kernel",
    "floyd_warshall",
    "semiring_closure",
    "reconstruct_path",
    "gaussian_solve",
    "forward_eliminate",
    "back_substitute",
    "lu_decompose",
    "determinant",
    "PivotError",
    "transitive_closure",
    "tune",
    "adaptive_tune",
    "TuningAdvice",
    "parenthesis_solve",
    "parenthesis_solve_spark",
    "matrix_chain_order",
    "render_parenthesization",
]
