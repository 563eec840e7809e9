"""Shared execution plumbing for the public solvers.

Every solver (FW-APSP, GE, transitive closure, generic semiring
closure) funnels through :func:`run_gep`, which selects the engine:

* ``"reference"`` — per-``k`` vectorized whole-table GEP (ground truth);
* ``"local"`` — single-node blocked execution (grid of tiles, any
  kernel) — the shared-memory mirror of the distributed drivers;
* ``"spark"`` — the sparkle-based distributed drivers (IM or CB).
"""

from __future__ import annotations

import numpy as np

from ..kernels import KernelStats
from ..sparkle import SparkleContext
from .blocked import blocked_gep_inplace
from .dpspark import GepSparkSolver, SolveReport, make_kernel
from .gep import GepSpec, gep_reference_vectorized

__all__ = ["run_gep"]


def run_gep(
    spec: GepSpec,
    table: np.ndarray,
    *,
    engine: str = "local",
    r: int = 8,
    kernel: str = "iterative",
    r_shared: int = 2,
    base_size: int = 64,
    omp_threads: int = 1,
    strategy: str = "im",
    sc: SparkleContext | None = None,
    partitioner=None,
    collect_stats: bool = False,
    checkpoint_every: int | None = None,
    resume: bool = False,
    max_iterations: int | None = None,
    on_iteration=None,
    degrade_on_pressure: bool = False,
) -> tuple[np.ndarray, SolveReport | None]:
    """Run one GEP computation; returns ``(result, report_or_None)``.

    ``table`` is never mutated.  See :class:`~repro.core.dpspark.
    GepSparkSolver` for the distributed-engine parameters.  The spark
    engine runs on ``sc``, or on a default ``SparkleContext()`` that
    lives for this one call when ``sc`` is ``None``; everything about
    the context — checkpoint directory, memory budget, backend,
    supervision — is configured on the ``SparkleContext`` the caller
    passes.  ``resume``/``max_iterations``/``on_iteration`` drive the
    durable write-ahead journal and crash-resume of a context that has
    a checkpoint directory, and ``degrade_on_pressure`` arms the
    solver's IM→CB fallback under critical memory pressure (all spark
    engine only).
    """
    table = np.asarray(table)
    if engine != "spark" and resume:
        raise ValueError("resume requires engine='spark'")
    if engine != "spark" and degrade_on_pressure:
        raise ValueError("degrade_on_pressure requires engine='spark'")
    if engine == "reference":
        return gep_reference_vectorized(spec, table), None

    if engine == "local":
        kern = make_kernel(
            spec,
            kernel,
            r_shared=r_shared,
            base_size=base_size,
            omp_threads=omp_threads,
        )
        out = np.array(table, dtype=spec.dtype, copy=True)
        stats = KernelStats() if collect_stats else None
        blocked_gep_inplace(spec, out, r, kern, stats=stats)
        report = SolveReport(
            spec_name=spec.name,
            strategy="local",
            n=table.shape[0],
            r=r,
            kernel=kern.describe(),
            num_partitions=0,
            kernel_stats=stats,
        )
        return out, report

    if engine == "spark":
        owns_ctx = sc is None
        if owns_ctx:
            sc = SparkleContext()
        try:
            kern = make_kernel(
                spec,
                kernel,
                r_shared=r_shared,
                base_size=base_size,
                omp_threads=omp_threads,
            )
            solver = GepSparkSolver(
                spec,
                sc,
                r=r,
                kernel=kern,
                strategy=strategy,
                partitioner=partitioner,
                collect_stats=collect_stats,
                checkpoint_every=checkpoint_every,
                resume=resume,
                max_iterations=max_iterations,
                on_iteration=on_iteration,
                degrade_on_pressure=degrade_on_pressure,
            )
            return solver.solve(table)
        finally:
            if owns_ctx:
                sc.stop()

    raise ValueError(f"unknown engine {engine!r} (reference|local|spark)")

