"""Analytical parameter tuning (paper §I, §IV-C, §VI).

The paper stresses that ``r`` (grid decomposition), ``r_shared``
(recursive fan-out), ``executor-cores`` and ``OMP_NUM_THREADS`` must be
chosen per cluster — "either on-the-fly by using adaptive runtime
configuration selection or using estimates from hardware/software
parameters based on analytical models".  This module is the analytical
route: it sweeps the configuration space through the cluster cost model
and returns the predicted-best execution plan, which Fig. 8's
portability experiment shows differs between the two testbeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cluster import ClusterConfig, CostModel, ExecutionPlan
from .gep import GepSpec

__all__ = ["TuningAdvice", "tune", "candidate_blocks", "adaptive_tune"]


@dataclass
class TuningAdvice:
    """Ranked configuration recommendations for one (problem, cluster)."""

    spec_name: str
    n: int
    cluster: str
    best: tuple[int, ExecutionPlan, float]  # (r, plan, predicted seconds)
    ranking: list[tuple[int, ExecutionPlan, float]] = field(default_factory=list)

    @property
    def block(self) -> int:
        return self.n // self.best[0]

    def describe(self) -> str:
        r, plan, secs = self.best
        return (
            f"{self.spec_name} n={self.n} on {self.cluster}: "
            f"{plan.label()}, block={self.n // r} (r={r}), "
            f"executor-cores={plan.executor_cores}, "
            f"predicted {secs:.0f}s"
        )


#: the tuner's search window: the smallest tile worth a task, and the
#: largest grid whose r³ kernel calls the driver can still schedule
MIN_BLOCK = 128
MAX_R = 256


def candidate_blocks(n: int) -> list[int]:
    """Power-of-two block sizes dividing ``n`` with a sane grid size."""
    out = []
    block = MIN_BLOCK
    while block <= n:
        r = n // block
        if n % block == 0 and 2 <= r <= MAX_R:
            out.append(block)
        block *= 2
    if not out and n >= 2:
        # fall back: split in half
        out.append(n // 2)
    return out


def tune(
    spec: GepSpec,
    n: int,
    cluster: ClusterConfig,
    *,
    strategies: tuple[str, ...] = ("im", "cb"),
    kernels: tuple[str, ...] = ("iterative", "recursive"),
    r_shared_values: tuple[int, ...] = (2, 4, 8, 16),
    omp_values: tuple[int, ...] = (1, 2, 4, 8, 16, 32),
    executor_cores_values: tuple[int, ...] | None = None,
    top: int = 10,
) -> TuningAdvice:
    """Predicted-best configuration for one problem on one cluster."""
    model = CostModel(cluster)
    if executor_cores_values is None:
        executor_cores_values = tuple(
            sorted({2, 4, 8, cluster.cores_per_node // 2, cluster.cores_per_node})
        )
    ranked: list[tuple[int, ExecutionPlan, float]] = []
    for block in candidate_blocks(n):
        r = n // block
        for strategy in strategies:
            if "iterative" in kernels:
                plan = ExecutionPlan(strategy, "iterative")
                ranked.append((r, plan, model.estimate(spec, n, r, plan).total))
            if "recursive" in kernels:
                for rs in r_shared_values:
                    if rs >= block:
                        continue
                    for omp in omp_values:
                        if omp > cluster.cores_per_node:
                            continue
                        for ec in executor_cores_values:
                            plan = ExecutionPlan(
                                strategy, "recursive", rs, 64, omp,
                                executor_cores=ec,
                            )
                            ranked.append(
                                (r, plan, model.estimate(spec, n, r, plan).total)
                            )
    if not ranked:
        raise ValueError(f"no feasible configuration for n={n}")
    ranked.sort(key=lambda t: t[2])
    return TuningAdvice(
        spec_name=spec.name,
        n=n,
        cluster=cluster.name,
        best=ranked[0],
        ranking=ranked[:top],
    )


def adaptive_tune(
    spec: GepSpec,
    sample_table,
    *,
    candidates: list[tuple[int, ExecutionPlan]] | None = None,
    num_executors: int = 4,
    cores_per_executor: int = 2,
    repeats: int = 1,
) -> tuple[int, ExecutionPlan, float]:
    """On-the-fly configuration selection by *measured* wall-clock.

    The paper's other tuning route ("adaptive runtime configuration
    selection", §I/§IV-C): run each candidate configuration for real on
    a representative sample problem and keep the fastest.  Complements
    :func:`tune`, which predicts instead of measuring.

    Parameters
    ----------
    spec, sample_table:
        The problem and a (small, representative) input to race on.
    candidates:
        ``(r, plan)`` pairs to try; a compact default grid otherwise.
    num_executors, cores_per_executor:
        Engine shape used for the trial runs.
    repeats:
        Measurements per candidate (minimum taken).

    Returns
    -------
    ``(r, plan, measured_seconds)`` of the fastest candidate.
    """
    import numpy as np

    from ..sparkle import SparkleContext
    from .dpspark import GepSparkSolver, make_kernel

    table = np.asarray(sample_table)
    n = table.shape[0]
    if candidates is None:
        candidates = []
        for r in (2, 4, max(2, n // 32)):
            for strategy in ("im", "cb"):
                candidates.append((r, ExecutionPlan(strategy, "iterative")))
                candidates.append(
                    (r, ExecutionPlan(strategy, "recursive", 4, 32, 2))
                )
        # Deduplicate by configuration signature (plans are unhashable).
        seen: set[tuple] = set()
        unique: list[tuple[int, ExecutionPlan]] = []
        for r, plan in candidates:
            sig = (r, plan.strategy, plan.kernel, plan.r_shared,
                   plan.base_size, plan.omp_threads, plan.executor_cores)
            if sig not in seen:
                seen.add(sig)
                unique.append((r, plan))
        candidates = unique
    best: tuple[int, ExecutionPlan, float] | None = None
    reference = None
    for r, plan in candidates:
        seconds = float("inf")
        for _ in range(max(1, repeats)):
            with SparkleContext(num_executors, cores_per_executor) as sc:
                kernel = make_kernel(
                    spec,
                    plan.kernel,
                    r_shared=plan.r_shared,
                    base_size=plan.base_size,
                    omp_threads=plan.omp_threads,
                )
                solver = GepSparkSolver(
                    spec, sc, r=r, kernel=kernel, strategy=plan.strategy,
                    collect_stats=False,
                )
                out, report = solver.solve(table)
            seconds = min(seconds, report.wall_seconds)
        if reference is None:
            reference = out
        elif not np.array_equal(
            np.asarray(out, dtype=spec.dtype),
            np.asarray(reference, dtype=spec.dtype),
        ) and not np.allclose(out, reference, equal_nan=True):
            raise AssertionError(
                f"candidate (r={r}, {plan.label()}) disagreed with the first "
                "candidate's result — refusing to tune on broken configs"
            )
        if best is None or seconds < best[2]:
            best = (r, plan, seconds)
    assert best is not None
    return best
