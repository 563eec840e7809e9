"""Fig. 4 as data, and grid-level blocked GEP execution on top of it.

The paper decomposes the DP table into an ``r x r`` grid of tiles and
runs, per (sub-)iteration ``k``: kernel **A** on the pivot tile
``(k, k)``; then **B** on the pivot row ‖ **C** on the pivot column;
then **D** on the remaining updated tiles — with the non-pivot ranges
``> k`` under a Σ_G constraint (GE) and ``≠ k`` without (FW-APSP).
That parametric r-way program — all four function bodies of Fig. 4 —
is written once here, as :func:`rway_stages`; the recursive kernel
(:mod:`repro.kernels.recursive`), the symbolic derivation
(:mod:`repro.core.calls`), the cache model
(:mod:`repro.kernels.cache_model`) and the tile-range helpers below
(which the Spark drivers and the cost model share) all read it.

:func:`blocked_gep_inplace` executes the grid-level schedule directly
on NumPy views of one table — a fast single-node GEP executor in its
own right, and the hand-written reference the distributed drivers
(:mod:`repro.core.dpspark`) are validated against.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from ..util import near_equal_splits
from .gep import GepSpec

__all__ = [
    "CASE_FLAGS",
    "case_of",
    "rway_stages",
    "fig4_stages",
    "grid_bounds",
    "updated_tiles",
    "b_range",
    "c_range",
    "blocked_gep_inplace",
    "virtual_pad",
    "virtual_unpad",
]

#: case name -> (row_aliased, col_aliased): which of the updated tile's
#: axes alias the pivot range.
CASE_FLAGS: dict[str, tuple[bool, bool]] = {
    "A": (True, True),
    "B": (True, False),
    "C": (False, True),
    "D": (False, False),
}


def case_of(row_aliased: bool, col_aliased: bool) -> str:
    """Inverse of :data:`CASE_FLAGS`."""
    if row_aliased:
        return "A" if col_aliased else "B"
    return "C" if col_aliased else "D"


def _others(k: int, n: int, constrained: bool) -> list[int]:
    """The Σ_G range rule: the non-pivot indices of an axis that aliases
    the pivot — ``> k`` under the constraint, ``≠ k`` without."""
    return list(range(k + 1, n)) if constrained else [t for t in range(n) if t != k]


@lru_cache(maxsize=1024)
def rway_stages(
    case: str, k: int, ni: int, nj: int, constrains_i: bool, constrains_j: bool
) -> tuple[tuple[tuple[str, int, int], ...], ...]:
    """Fig. 4: the stages of sub-iteration ``k`` of an r-way ``case`` call.

    The call's tile is split ``ni x nj``; each stage is a tuple of
    mutually independent ``(sub_case, i, j)`` sub-calls, stages run in
    order, empty stages are dropped.  An axis that aliases the pivot
    ranges over the Σ_G rule, a free axis over everything.
    """
    row_aliased, col_aliased = CASE_FLAGS[case]
    rows = _others(k, ni, constrains_i) if row_aliased else range(ni)
    cols = _others(k, nj, constrains_j) if col_aliased else range(nj)
    if case == "A":
        stages = [
            [("A", k, k)],
            [("B", k, j) for j in cols] + [("C", i, k) for i in rows],
            [("D", i, j) for i in rows for j in cols],
        ]
    elif case == "B":
        stages = [[("B", k, j) for j in cols], [("D", i, j) for i in rows for j in cols]]
    elif case == "C":
        stages = [[("C", i, k) for i in rows], [("D", i, j) for j in cols for i in rows]]
    else:
        stages = [[("D", i, j) for i in rows for j in cols]]
    return tuple(tuple(stage) for stage in stages if stage)


def fig4_stages(spec: GepSpec, case: str, k: int, ni: int, nj: int):
    """:func:`rway_stages` under ``spec``'s Σ_G constraints (the memo is
    keyed on the two flags so it never holds a spec alive)."""
    return rway_stages(case, k, ni, nj, spec.constrains_i, spec.constrains_j)


def grid_bounds(n: int, r: int) -> list[int]:
    """Tile boundaries of an ``r``-way decomposition of ``[0, n)``."""
    return near_equal_splits(n, r)


def b_range(spec: GepSpec, k: int, r: int) -> list[int]:
    """Tile columns updated by kernel B at outer iteration ``k``.

    Σ_G-constrained specs (GE) only touch columns right of the pivot;
    unconstrained specs (FW-APSP) touch every non-pivot column.
    """
    return _others(k, r, spec.constrains_j)


def c_range(spec: GepSpec, k: int, r: int) -> list[int]:
    """Tile rows updated by kernel C at outer iteration ``k``."""
    return _others(k, r, spec.constrains_i)


def updated_tiles(spec: GepSpec, k: int, r: int) -> dict[str, list[tuple[int, int]]]:
    """Tiles written at outer iteration ``k``, grouped by kernel case."""
    tiles: dict[str, list[tuple[int, int]]] = {"A": [], "B": [], "C": [], "D": []}
    # Unmemoised: a grid-level caller asks once per k, and an r-way grid's
    # D stage is r² entries the memo would otherwise keep.
    for stage in rway_stages.__wrapped__(
        "A", k, r, r, spec.constrains_i, spec.constrains_j
    ):
        for case, i, j in stage:
            tiles[case].append((i, j))
    return tiles


def blocked_gep_inplace(
    spec: GepSpec,
    c: np.ndarray,
    r: int,
    kernel,
    stats=None,
    runtime=None,
    bounds: list[int] | None = None,
) -> np.ndarray:
    """Run the blocked A/B‖C/D schedule on table ``c`` in place.

    Parameters
    ----------
    spec, c:
        GEP problem and its square table (modified in place).
    r:
        Grid decomposition parameter (number of tile rows/columns).
    kernel:
        An :class:`~repro.kernels.iterative.IterativeKernel` or
        :class:`~repro.kernels.recursive.RecursiveKernel`.
    stats:
        Optional :class:`~repro.kernels.stats.KernelStats` sink.
    runtime:
        Optional :class:`~repro.kernels.openmp.OmpRuntime`; when given,
        stage-2 and stage-3 tile kernels of each iteration run as
        parallel-for batches (they write disjoint tiles).
    bounds:
        Explicit tile boundaries (``[0, ..., n]``, strictly increasing).
        Blocked GEP is correct for *any* contiguous partition of the
        index range — the property-based tests exercise arbitrary
        boundaries — so callers may hand-shape tiles; ``r`` is ignored
        when given.
    """
    n = c.shape[0]
    if c.shape[0] != c.shape[1]:
        raise ValueError("blocked GEP requires a square table")
    if r < 1:
        raise ValueError("r must be >= 1")
    if bounds is None:
        bounds = grid_bounds(n, r)
    else:
        bounds = list(bounds)
        if (
            bounds[0] != 0
            or bounds[-1] != n
            or any(a >= b for a, b in zip(bounds, bounds[1:]))
        ):
            raise ValueError(
                f"bounds must be strictly increasing from 0 to {n}, got {bounds}"
            )
    nt = len(bounds) - 1

    def tile(i: int, j: int) -> np.ndarray:
        return c[bounds[i] : bounds[i + 1], bounds[j] : bounds[j + 1]]

    def run_batch(calls: Sequence[tuple]) -> None:
        if runtime is None:
            for call in calls:
                kernel.run(*call, stats=stats)
        else:
            runtime.parallel_for(
                [(lambda cl=call: kernel.run(*cl, stats=stats)) for call in calls]
            )

    for k in range(nt):
        gk0 = bounds[k]
        if not any(spec.k_active(gk, n) for gk in range(gk0, bounds[k + 1])):
            continue
        pivot = tile(k, k)
        kernel.run("A", pivot, pivot, pivot, pivot, gk0, gk0, gk0, n, stats=stats)
        bc_calls = [
            ("B", tile(k, j), pivot, tile(k, j), pivot, gk0, bounds[j], gk0, n)
            for j in b_range(spec, k, nt)
        ] + [
            ("C", tile(i, k), tile(i, k), pivot, pivot, bounds[i], gk0, gk0, n)
            for i in c_range(spec, k, nt)
        ]
        run_batch(bc_calls)
        d_calls = [
            ("D", tile(i, j), tile(i, k), tile(k, j), pivot, bounds[i], bounds[j], gk0, n)
            for i in c_range(spec, k, nt)
            for j in b_range(spec, k, nt)
        ]
        run_batch(d_calls)
    return c


def virtual_pad(spec: GepSpec, table: np.ndarray, target_n: int) -> np.ndarray:
    """Embed ``table`` into a ``target_n``-sized table with inert padding.

    Implements the paper's §IV-A virtual padding: the padded cells are
    chosen (per spec) so no update involving them ever changes a cell in
    the original index range.
    """
    n = table.shape[0]
    if table.shape[0] != table.shape[1]:
        raise ValueError("virtual_pad requires a square table")
    if target_n < n:
        raise ValueError("target size smaller than table")
    if target_n == n:
        return np.array(table, dtype=spec.dtype, copy=True)
    out = np.empty((target_n, target_n), dtype=spec.dtype)
    out[:n, :n] = table
    off_diag = spec.pad_value(0, 1)
    diag = spec.pad_value(0, 0)
    out[n:, :] = off_diag
    out[:, n:] = off_diag
    idx = np.arange(n, target_n)
    out[idx, idx] = diag
    return out


def virtual_unpad(table: np.ndarray, n: int) -> np.ndarray:
    """Extract the original ``n x n`` corner of a padded table."""
    return table[:n, :n]
