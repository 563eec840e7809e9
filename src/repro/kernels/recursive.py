"""Parametric r-way recursive divide-&-conquer (r-way R-DP) tile kernels.

This module implements the paper's §IV kernels (Fig. 4) *generically* for
any :class:`~repro.core.gep.GepSpec`.  The four blocked-GEP cases are
encoded by which of the updated tile's axes alias the pivot range:

========  ===========  ===========  =================================
case      rows=pivot?  cols=pivot?  paper function (GE instance)
========  ===========  ===========  =================================
``A``     yes          yes          ``A_GE(X, r)``
``B``     yes          no           ``B_GE(X, U, W, r)``
``C``     no           yes          ``C_GE(X, V, W, r)``
``D``     no           no           ``D_GE(X, U, V, W, r)``
========  ===========  ===========  =================================

Each recursive call splits every axis into (at most) ``r`` near-equal
parts and runs, per sub-iteration, the stages Fig. 4 prescribes — the
schedule itself (case dispatch, A then B‖C then D, the Σ_G ranges) is
data in :func:`repro.core.blocked.rway_stages`; this module only maps a
stage's ``(sub_case, i, j)`` entries onto views and issues each stage's
independent calls to the simulated OpenMP runtime as one
``parallel_for``.  Reaching the base size, the iterative tile kernel
runs.

Everything operates on NumPy *views* of the caller's tile — the
recursion allocates no copies (the guides' "views, not copies" rule, and
the reason the kernels are I/O-efficient).
"""

from __future__ import annotations

import numpy as np

from ..core.blocked import CASE_FLAGS, fig4_stages
from ..core.gep import GepSpec
from ..util import near_equal_splits
from .iterative import gep_tile_update
from .openmp import OmpRuntime, SerialRuntime
from .stats import KernelStats

__all__ = ["RecursiveKernel"]


class RecursiveKernel:
    """r_shared-way R-DP kernel over a GEP spec.

    Parameters
    ----------
    spec:
        The GEP problem.
    r_shared:
        Recursive fan-out (the paper's ``r_shared``), >= 2.
    base_size:
        Tiles with every extent <= ``base_size`` run the iterative base
        kernel.  This is the cache-level tuning knob; the recursion is
        otherwise cache-oblivious.
    runtime:
        Simulated OpenMP runtime; defaults to serial execution.
    """

    kind = "recursive"

    def __init__(
        self,
        spec: GepSpec,
        r_shared: int = 2,
        base_size: int = 64,
        runtime: OmpRuntime | None = None,
    ) -> None:
        if r_shared < 2:
            raise ValueError("r_shared must be >= 2")
        if base_size < 1:
            raise ValueError("base_size must be >= 1")
        self.spec = spec
        self.r_shared = r_shared
        self.base_size = base_size
        self.runtime = runtime if runtime is not None else SerialRuntime()

    # ------------------------------------------------------------------
    def run(
        self,
        case: str,
        x: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        gi0: int,
        gj0: int,
        gk0: int,
        n_global: int,
        stats: KernelStats | None = None,
    ) -> None:
        """Entry point with the same contract as :class:`IterativeKernel`."""
        if case not in CASE_FLAGS:
            raise ValueError(f"unknown kernel case {case!r}")
        self._rec(case, x, u, v, w, gi0, gj0, gk0, n_global, stats)

    # ------------------------------------------------------------------
    def _rec(self, case, x, u, v, w, gi0, gj0, gk0, n_global, stats) -> None:
        # ``w is None`` is legal for case D of specs with needs_w=False
        # (the paper's FW-APSP driver ships no pivot copy to D kernels).
        pivot = u.shape[1] if w is None else w.shape[0]
        if max(x.shape[0], x.shape[1], pivot) <= self.base_size:
            gep_tile_update(
                self.spec, x, u, v, w, gi0, gj0, gk0, n_global, stats, case
            )
            return
        if stats is not None:
            stats.record_recursion()
        row_aliased, col_aliased = CASE_FLAGS[case]
        r = self.r_shared
        bk = near_equal_splits(pivot, r)
        bi = bk if row_aliased else near_equal_splits(x.shape[0], r)
        bj = bk if col_aliased else near_equal_splits(x.shape[1], r)
        ni, nj = len(bi) - 1, len(bj) - 1
        # An operand whose axis aliases the pivot lives in x itself.
        usrc = x if col_aliased else u
        vsrc = x if row_aliased else v
        wsrc = x if case == "A" else w

        for k in range(len(bk) - 1):
            k0, k1 = bk[k], bk[k + 1]
            w_sub = None if wsrc is None else wsrc[k0:k1, k0:k1]

            def call(sub_case, i, j):
                i0, i1, j0, j1 = bi[i], bi[i + 1], bj[j], bj[j + 1]
                self._rec(
                    sub_case,
                    x[i0:i1, j0:j1],
                    usrc[i0:i1, k0:k1],
                    vsrc[k0:k1, j0:j1],
                    w_sub,
                    gi0 + i0,
                    gj0 + j0,
                    gk0 + k0,
                    n_global,
                    stats,
                )

            stages = fig4_stages(self.spec, case, k, ni, nj)
            if case == "A":
                # The one-call sub-pivot stage runs inline, not as a
                # parallel-for of width 1.
                call(*stages[0][0])
                stages = stages[1:]
            for stage in stages:
                self._par(stage, call, stats)

    # ------------------------------------------------------------------
    def _par(self, items, call, stats) -> None:
        """Issue one stage of independent sub-calls to the OpenMP runtime."""
        if stats is not None:
            stats.record_parallel_for(len(items))
        self.runtime.parallel_for(
            [(lambda it=item: call(*it)) for item in items]
        )

    def describe(self) -> dict:
        """Kernel metadata recorded into execution traces."""
        return {
            "kind": self.kind,
            "r_shared": self.r_shared,
            "base_size": self.base_size,
            "omp_threads": self.runtime.num_threads,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RecursiveKernel(spec={self.spec.name!r}, r_shared={self.r_shared}, "
            f"base_size={self.base_size}, threads={self.runtime.num_threads})"
        )
