"""Shared execution plumbing for the public solvers.

Every solver (FW-APSP, GE, transitive closure, generic semiring
closure) funnels through :func:`run_gep`, which selects the engine:

* ``"reference"`` — per-``k`` vectorized whole-table GEP (ground truth);
* ``"local"`` — single-node blocked execution (grid of tiles, any
  kernel) — the shared-memory mirror of the distributed drivers;
* ``"spark"`` — the sparkle-based distributed drivers (IM or CB).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..kernels import KernelStats
from ..sparkle import SparkleContext
from .blocked import blocked_gep_inplace
from .dpspark import GepSparkSolver, SolveReport, make_kernel
from .gep import GepSpec, gep_reference_vectorized

__all__ = ["run_gep", "GepRunOptions"]


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
    num_partitions: int | None = None,
    partitioner=None,
    collect_stats: bool = False,
    checkpoint_every: int | None = None,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    max_iterations: int | None = None,
    on_iteration=None,
    memory_budget_bytes: int | None = None,
    spill_dir: str | None = None,
    degrade_on_pressure: bool = False,
    backend: str = "threads",
    heartbeat_interval: float | None = None,
    task_deadline: float | None = None,
    max_task_failures: int | None = None,
    degrade_on_crash: bool = False,
    affinity: bool = True,
) -> tuple[np.ndarray, SolveReport | None]:
    """Run one GEP computation; returns ``(result, report_or_None)``.

    ``table`` is never mutated.  See :class:`~repro.core.dpspark.
    GepSparkSolver` for the distributed-engine parameters.
    ``checkpoint_dir``/``resume``/``max_iterations``/``on_iteration``
    arm the durable write-ahead journal and crash-resume (spark engine
    only).  ``memory_budget_bytes``/``spill_dir`` attach the unified
    memory governor to an owned context (spark engine only; pass a
    pre-budgeted ``sc`` otherwise), and ``degrade_on_pressure`` arms
    the solver's IM→CB fallback under critical pressure.  ``backend``
    picks the execution data plane of an owned spark context
    (``"threads"`` default, or ``"processes"`` for multicore kernel
    offload — bit-identical results; construct ``sc`` with ``backend=``
    yourself to combine with a shared context).

    ``heartbeat_interval``/``task_deadline``/``max_task_failures``
    tune the worker supervision layer of an owned spark context (see
    :class:`~repro.sparkle.supervisor.SupervisionConfig`; pass a
    pre-configured ``sc`` otherwise), and ``degrade_on_crash`` arms the
    solver's processes→threads fallback once a kernel call is
    quarantined as poison.

    ``affinity=False`` disables the process backend's tile-affinity
    routing on an owned spark context (pass a pre-configured ``sc``
    otherwise).
    """
    table = np.asarray(table)
    if engine != "spark" and (checkpoint_dir is not None or resume):
        raise ValueError("checkpoint_dir/resume require engine='spark'")
    if engine != "spark" and (
        memory_budget_bytes is not None or degrade_on_pressure
    ):
        raise ValueError(
            "memory_budget_bytes/degrade_on_pressure require engine='spark'"
        )
    if backend != "threads" and engine != "spark":
        raise ValueError("backend requires engine='spark'")
    if backend != "threads" and sc is not None:
        raise ValueError(
            "backend applies to an owned context; construct the "
            "SparkleContext with backend= instead"
        )
    if sc is not None and memory_budget_bytes is not None:
        raise ValueError(
            "memory_budget_bytes applies to an owned context; construct the "
            "SparkleContext with memory_budget_bytes instead"
        )
    supervision_kw = {
        "heartbeat_interval": heartbeat_interval,
        "task_deadline": task_deadline,
        "max_task_failures": max_task_failures,
    }
    supervision_set = {k for k, v in supervision_kw.items() if v is not None}
    if supervision_set and engine != "spark":
        names = "/".join(sorted(supervision_set))
        verb = "requires" if len(supervision_set) == 1 else "require"
        raise ValueError(f"{names} {verb} engine='spark'")
    if supervision_set and sc is not None:
        raise ValueError(
            "supervision options apply to an owned context; construct the "
            "SparkleContext with heartbeat_interval/task_deadline/"
            "max_task_failures instead"
        )
    if degrade_on_crash and engine != "spark":
        raise ValueError("degrade_on_crash requires engine='spark'")
    if not affinity and engine != "spark":
        raise ValueError("affinity requires engine='spark'")
    if not affinity and sc is not None:
        raise ValueError(
            "affinity applies to an owned context; construct the "
            "SparkleContext with affinity= instead"
        )
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
            ctx_kw = {k: v for k, v in supervision_kw.items() if v is not None}
            sc = SparkleContext(
                checkpoint_dir=checkpoint_dir,
                memory_budget_bytes=memory_budget_bytes,
                spill_dir=spill_dir,
                backend=backend,
                affinity=affinity,
                **ctx_kw,
            )
        elif checkpoint_dir is not None:
            sc.setCheckpointDir(checkpoint_dir)
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
                num_partitions=num_partitions,
                partitioner=partitioner,
                collect_stats=collect_stats,
                checkpoint_every=checkpoint_every,
                resume=resume,
                max_iterations=max_iterations,
                on_iteration=on_iteration,
                degrade_on_pressure=degrade_on_pressure,
                degrade_on_crash=degrade_on_crash,
            )
            return solver.solve(table)
        finally:
            if owns_ctx:
                sc.stop()

    raise ValueError(f"unknown engine {engine!r} (reference|local|spark)")


class GepRunOptions(dict):
    """Keyword bag forwarded to :func:`run_gep` by the solver wrappers."""

    KNOWN = frozenset(
        {
            "engine",
            "r",
            "kernel",
            "r_shared",
            "base_size",
            "omp_threads",
            "strategy",
            "sc",
            "num_partitions",
            "partitioner",
            "collect_stats",
            "checkpoint_every",
            "checkpoint_dir",
            "resume",
            "max_iterations",
            "on_iteration",
            "memory_budget_bytes",
            "spill_dir",
            "degrade_on_pressure",
            "backend",
            "heartbeat_interval",
            "task_deadline",
            "max_task_failures",
            "degrade_on_crash",
            "affinity",
        }
    )

    def __init__(self, **kw: Any) -> None:
        unknown = set(kw) - self.KNOWN
        if unknown:
            raise TypeError(f"unknown solver options: {sorted(unknown)}")
        super().__init__(**kw)
