"""Bench: real wall-clock of the tile-kernel families.

These are genuine measurements (not cost-model outputs): the iterative
per-k vectorized kernel vs the r-way recursive kernels on a single
table, plus the pure-Python loop ablation that quantifies the "offload
to bare metal" effect the paper gets from Numba.
"""

import numpy as np
import pytest

from repro.core.gep import FloydWarshallGep, GaussianEliminationGep
from repro.kernels import IterativeKernel, RecursiveKernel, gep_tile_update_loop
from repro.workloads import diagonally_dominant, random_digraph_weights

N = 192


def _fw_table():
    return random_digraph_weights(N, 0.3, seed=7)


def _ge_table():
    return diagonally_dominant(N, seed=7)


@pytest.mark.parametrize("name,make,spec", [
    ("fw", _fw_table, FloydWarshallGep()),
    ("ge", _ge_table, GaussianEliminationGep()),
])
def test_bench_iterative_kernel(benchmark, name, make, spec):
    table = make()
    kern = IterativeKernel(spec)

    def run():
        t = table.copy()
        kern.run("A", t, t, t, t, 0, 0, 0, N)
        return t

    benchmark(run)


@pytest.mark.parametrize("r_shared", [2, 4, 8])
@pytest.mark.parametrize("name,make,spec", [
    ("fw", _fw_table, FloydWarshallGep()),
    ("ge", _ge_table, GaussianEliminationGep()),
])
def test_bench_recursive_kernel(benchmark, name, make, spec, r_shared):
    table = make()
    kern = RecursiveKernel(spec, r_shared=r_shared, base_size=32)

    def run():
        t = table.copy()
        kern.run("A", t, t, t, t, 0, 0, 0, N)
        return t

    benchmark(run)


@pytest.mark.parametrize("case", "ABCD")
@pytest.mark.parametrize("n", [8, 96, 256])
def test_bench_compiled_fold_case(benchmark, n, case):
    """The compiled min-plus fold of one n x n tile per kernel case: A
    (``u = v = x``) runs k-outer, B (``v = x``) and C (``u = x``) the
    two-phase fold, D (operands apart) the register-blocked one.  Each
    size is one group, so the case gap reads off the table; every row's
    ``extra_info`` holds its median ns per cell update
    (``--benchmark-json``).  The tile is not reset between rounds: a
    finite min-plus fold costs the same on its own output."""
    from repro.kernels import native

    if native.status() != "native":
        pytest.skip(f"compiled library unavailable: {native.status()}")
    rng = np.random.default_rng(n)
    x, p, q = (rng.integers(0, 100, (n, n)).astype(float) for _ in range(3))
    u, v = {"A": (x, x), "B": (p, x), "C": (x, p), "D": (p, q)}[case]
    benchmark.group = f"compiled fold {n}x{n}"
    benchmark(native.fold, "minplus", x, u, v)
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["ns_per_update"] = benchmark.stats.stats.median / n**3 * 1e9


def test_bench_pure_loop_ablation(benchmark):
    """The un-offloaded scalar loop (tiny n — it is ~1000x slower)."""
    n = 32
    spec = FloydWarshallGep()
    table = random_digraph_weights(n, 0.3, seed=1)

    def run():
        t = table.copy()
        gep_tile_update_loop(spec, t, t, t, t, 0, 0, 0, n)
        return t

    benchmark(run)


def test_vectorized_beats_pure_loop():
    """Sanity on the ablation direction (one timed comparison)."""
    import time

    n = 48
    spec = FloydWarshallGep()
    table = random_digraph_weights(n, 0.3, seed=2)
    t0 = time.perf_counter()
    fast = table.copy()
    IterativeKernel(spec).run("A", fast, fast, fast, fast, 0, 0, 0, n)
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    slow = table.copy()
    gep_tile_update_loop(spec, slow, slow, slow, slow, 0, 0, 0, n)
    t_slow = time.perf_counter() - t0
    np.testing.assert_allclose(fast, slow)
    assert t_slow > t_fast
