"""Bench: ablations of the design choices called out in DESIGN.md §6.

* grid-aware vs hash partitioner (the §VI future-work proposal) — the
  modeled shuffle seconds at paper scale, plus real engine runs;
* recursive base-case size sensitivity (real kernel wall-clock);
* cache-simulator evidence for the L2 crossover (miss counts);
* failure-injection recovery overhead (real engine).
"""

import numpy as np
import pytest

from repro.core.dpspark import GepSparkSolver, make_kernel
from repro.core.gep import FloydWarshallGep, GaussianEliminationGep
from repro.kernels import (
    RecursiveKernel,
    iterative_gep_misses,
    recursive_gep_misses,
)
from repro.sparkle import FaultPlan, FaultSpec, GridPartitioner, SparkleContext
from repro.workloads import diagonally_dominant, random_digraph_weights


@pytest.mark.parametrize("base_size", [8, 32, 128])
def test_bench_base_case_sensitivity(benchmark, base_size):
    """Too-small base cases pay recursion overhead; too-large ones lose
    locality — the r_shared/base tradeoff the paper tunes."""
    n = 192
    spec = GaussianEliminationGep()
    table = diagonally_dominant(n, seed=5)
    kern = RecursiveKernel(spec, r_shared=2, base_size=base_size)

    def run():
        t = table.copy()
        kern.run("A", t, t, t, t, 0, 0, 0, n)
        return t

    benchmark(run)


@pytest.mark.parametrize("partitioner", ["hash", "grid"])
def test_bench_partitioner_choice(benchmark, partitioner):
    """§VI ablation on the real engine (identical results, different
    placement)."""
    spec = FloydWarshallGep()
    n = 96
    table = random_digraph_weights(n, 0.3, seed=6)

    def run():
        with SparkleContext(4, 2, default_parallelism=16) as sc:
            part = GridPartitioner(16, 4) if partitioner == "grid" else None
            solver = GepSparkSolver(
                spec, sc, r=4, kernel=make_kernel(spec, "iterative"),
                strategy="im", partitioner=part, collect_stats=False,
            )
            out, _ = solver.solve(table)
            return out

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert result.shape == (n, n)


def test_bench_cache_miss_counting(benchmark, save_report):
    """The locality ablation: simulated misses, iterative vs recursive."""
    spec = FloydWarshallGep()
    n, cache = 96, 16 * 1024

    def run():
        it = iterative_gep_misses(spec, n, cache)
        rec = recursive_gep_misses(spec, n, cache, r_shared=2, base_size=16)
        return it, rec

    it, rec = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report(
        "ablation_cache",
        f"ideal-cache misses, n={n}, M={cache}B:\n"
        f"  iterative: {it.misses:,} misses / {it.accesses:,} accesses\n"
        f"  recursive: {rec.misses:,} misses / {rec.accesses:,} accesses\n"
        f"  ratio: {it.misses / rec.misses:.1f}x fewer misses recursively",
    )
    assert rec.misses < it.misses


def test_bench_failure_recovery_overhead(benchmark):
    """Lineage recomputation cost under injected executor faults."""
    spec = FloydWarshallGep()
    n = 64
    table = random_digraph_weights(n, 0.3, seed=8)

    def run():
        # a fresh plan per round (its ledger accumulates); ~5 % of first
        # attempts die, tasks stay concurrent as in a fault-free solve
        plan = FaultPlan(8, [FaultSpec("kill", rate=0.05)], serialize_tasks=False)
        with SparkleContext(2, 2, fault_plan=plan) as sc:
            solver = GepSparkSolver(
                spec, sc, r=4, kernel=make_kernel(spec, "iterative"),
                strategy="im", collect_stats=False,
            )
            out, _ = solver.solve(table)
            return out

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.shape == (n, n)


@pytest.mark.parametrize("strategy", ["im", "cb", "bcast"])
def test_bench_distribution_strategies(benchmark, strategy):
    """Three-way strategy ablation (IM / CB / broadcast) on one input."""
    spec = GaussianEliminationGep()
    n = 96
    table = diagonally_dominant(n, seed=17)

    def run():
        with SparkleContext(4, 2) as sc:
            solver = GepSparkSolver(
                spec, sc, r=4, kernel=make_kernel(spec, "iterative"),
                strategy=strategy, collect_stats=False,
            )
            out, _ = solver.solve(table)
            return out

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
    assert result.shape == (n, n)
