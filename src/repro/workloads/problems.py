"""The named problems of the CLI and the service wire format."""

from __future__ import annotations

import numpy as np

from ..core.gep import (
    FloydWarshallGep,
    GaussianEliminationGep,
    GepSpec,
    TransitiveClosureGep,
)
from .graphs import random_digraph_weights
from .matrices import diagonally_dominant

__all__ = ["PROBLEM_SPECS", "make_problem"]

#: problem name -> GEP spec class
PROBLEM_SPECS: dict[str, type[GepSpec]] = {
    "apsp": FloydWarshallGep,
    "ge": GaussianEliminationGep,
    "tc": TransitiveClosureGep,
}


def make_problem(
    problem: str, n: int, seed: int, density: float
) -> tuple[GepSpec, np.ndarray]:
    """The spec of ``problem`` and its seeded ``n x n`` input table.

    ``ge`` is a diagonally dominant matrix; ``apsp`` the weights of a
    random digraph of the given edge ``density`` and ``tc`` that graph's
    adjacency.  Same arguments, same bytes — the service depends on it
    twice: for fingerprint dedup across clients, and on a cache hit,
    which the service resolves from these arguments without generating
    the table at all.  No table holds a NaN.
    """
    if problem not in PROBLEM_SPECS:
        raise ValueError(f"unknown problem {problem!r}")
    spec = PROBLEM_SPECS[problem]()
    if problem == "ge":
        table = diagonally_dominant(n, seed=seed)
    else:
        weights = random_digraph_weights(n, density, seed=seed)
        table = np.isfinite(weights) if problem == "tc" else weights
    return spec, table.astype(spec.dtype, copy=False)
