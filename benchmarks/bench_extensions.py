"""Bench: the parenthesis-DP extension — its two evaluation orders and
the distributed wavefront driver."""

import numpy as np
import pytest

from repro.core.parenthesis import parenthesis_solve
from repro.core.parenthesis_spark import parenthesis_solve_spark
from repro.sparkle import SparkleContext


@pytest.mark.parametrize("method", ["iterative", "recursive"])
def test_bench_parenthesis_methods(benchmark, method):
    rng = np.random.default_rng(3)
    dims = rng.integers(1, 64, size=120).astype(float)

    def cost(i, ks, j):
        return dims[i] * dims[ks] * dims[j]

    c, _ = benchmark(lambda: parenthesis_solve(dims.size, cost, method=method))
    assert np.isfinite(c[0, dims.size - 1])


def test_bench_parenthesis_distributed(benchmark):
    rng = np.random.default_rng(4)
    dims = rng.integers(1, 64, size=60).astype(float)

    def cost(i, ks, j):
        return dims[i] * dims[ks] * dims[j]

    def run():
        with SparkleContext(4, 2) as sc:
            return parenthesis_solve_spark(dims.size, cost, sc, r=4)

    c, _ = benchmark.pedantic(run, rounds=3, iterations=1)
    ref, _ = parenthesis_solve(dims.size, cost)
    iu = np.triu_indices(dims.size, 1)
    np.testing.assert_allclose(c[iu], ref[iu])
