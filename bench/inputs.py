"""Inputs and oracles: tables from the program's ``workloads`` generators,
the blocked single-threaded oracle, and the plain-NumPy reference."""

from __future__ import annotations

import os

import numpy as np
from repro.core.api import run_gep
from repro.core.gep import FloydWarshallGep, GaussianEliminationGep
from repro.workloads import diagonally_dominant, random_digraph_weights

#: edge density of generated graphs — the service's wire-format default,
#: so a table built here equals the one the server builds from the seed
DENSITY = 0.35


def gep_spec(problem: str):
    return {"apsp": FloydWarshallGep, "ge": GaussianEliminationGep}[problem]()


def make_table(problem: str, n: int, seed: int) -> np.ndarray:
    if problem == "ge":
        table = diagonally_dominant(n, seed=seed)
    else:
        table = random_digraph_weights(n, DENSITY, seed=seed)
    return table.astype(gep_spec(problem).dtype, copy=False)


def blocked_oracle(problem: str, table: np.ndarray, r: int) -> np.ndarray:
    """The same blocked problem, single-threaded, no engine."""
    out, _report = run_gep(gep_spec(problem), table, engine="local", r=r)
    return out


def kept(name: str, compute) -> np.ndarray:
    """``compute()``, saved in the run's scratch directory (the parent of
    this life's) so the later lives of one run load it instead."""
    path = os.path.join(os.pardir, name)
    if os.path.exists(path):
        return np.load(path)
    value = compute()
    np.save(path, value)
    return value


def numpy_ref(problem: str, table: np.ndarray) -> np.ndarray:
    """The ten-line NumPy loop the engine is equivalent to."""
    c = np.array(table, copy=True)
    n = c.shape[0]
    if problem == "ge":
        for k in range(n - 1):
            c[k + 1 :, k + 1 :] -= np.outer(c[k + 1 :, k], c[k, k + 1 :]) / c[k, k]
    else:
        for k in range(n):
            np.minimum(c, c[:, k, None] + c[None, k, :], out=c)
    return c
