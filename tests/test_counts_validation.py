"""The cost model's count formulas vs the real engine's meters.

This is the load-bearing validation of the reproduction strategy
(DESIGN.md §2): ``repro.cluster.counts`` claims to predict exactly what
the drivers shuffle/collect/store, and these tests hold it to that on
real engine runs.  Byte comparisons allow a small per-record envelope
(keys/role tags around each tile payload); discrete counters (storage
puts/gets, kernel updates) must match exactly.  Every engine run is
checked on both execution backends: the process backend differs from
the thread backend only in where the kernel runs, so it is held to the
same envelope.
"""

import numpy as np
import pytest

from repro.cluster import analyze_solve, kernel_updates
from repro.cluster.counts import SolveCounts
from repro.core.blocked import grid_bounds
from repro.core.dpspark import GepSparkSolver, make_kernel
from repro.core.gep import (
    FloydWarshallGep,
    GaussianEliminationGep,
    TransitiveClosureGep,
)
from repro.kernels import IterativeKernel, KernelStats
from repro.sparkle import SparkleContext, shm_supported

from .conftest import fw_table, ge_table, tc_table

SPECS = {
    "fw": (FloydWarshallGep(), fw_table, 8),
    "ge": (GaussianEliminationGep(), ge_table, 8),
    "tc": (TransitiveClosureGep(), tc_table, 1),
}


BACKENDS = ("threads", "processes") if shm_supported() else ("threads",)


def _run(spec, table, strategy, r):
    """One report per backend, so each caller holds both to its claim."""
    for backend in BACKENDS:
        with SparkleContext(
            num_executors=2, cores_per_executor=2, backend=backend
        ) as sc:
            solver = GepSparkSolver(
                spec,
                sc,
                r=r,
                kernel=make_kernel(spec, "iterative"),
                strategy=strategy,
            )
            _out, report = solver.solve(table)
            yield report


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("r", [2, 4])
def test_im_shuffle_bytes_match_counts(name, r):
    spec, make, dtype_bytes = SPECS[name]
    n = 24
    t = make(n, seed=1)
    counts = analyze_solve(spec, n, r)
    blocks = counts.total_shuffle_blocks("im")
    payload = blocks * counts.tile_bytes(dtype_bytes)
    for report in _run(spec, t, "im", r):
        measured = report.engine_metrics.total_shuffle_bytes
        # Envelope: each shuffled record adds key/tag bytes on top of the tile.
        assert payload <= measured <= payload + blocks * 64, (
            report.engine_metrics.backend
        )


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("r", [2, 4])
def test_cb_shuffle_collect_storage_match_counts(name, r):
    spec, make, dtype_bytes = SPECS[name]
    n = 24
    t = make(n, seed=2)
    counts = analyze_solve(spec, n, r)
    blocks = counts.total_shuffle_blocks("cb")
    payload = blocks * counts.tile_bytes(dtype_bytes)
    collect_blocks = counts.total_collect_blocks() + counts.final_collect_blocks
    collect_payload = collect_blocks * counts.tile_bytes(dtype_bytes)
    for report in _run(spec, t, "cb", r):
        m = report.engine_metrics
        assert payload <= m.total_shuffle_bytes <= payload + blocks * 64, m.backend
        assert (
            collect_payload
            <= m.total_collect_bytes
            <= collect_payload + collect_blocks * 64
        ), m.backend
        assert m.storage_puts == sum(it.cb_storage_puts for it in counts.iterations)
        assert m.storage_gets == sum(it.cb_storage_gets for it in counts.iterations)


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("r", [1, 2, 4, 8])
def test_kernel_update_counts_exact(name, r):
    spec, make, _ = SPECS[name]
    n = 24
    t = make(n, seed=3)
    counts = analyze_solve(spec, n, r)
    for report in _run(spec, t, "im", r):
        assert report.kernel_stats.updates == counts.total_updates()


@pytest.mark.parametrize("name", SPECS)
def test_per_case_updates_match_kernel_stats(name):
    """counts.kernel_updates == what the real kernel reports, per case."""
    spec, make, _ = SPECS[name]
    n, r = 20, 4
    t = make(n, seed=4)
    bounds = grid_bounds(n, r)
    stats = KernelStats()
    kern = IterativeKernel(spec)
    k = 1
    pivot = t[bounds[k] : bounds[k + 1], bounds[k] : bounds[k + 1]].copy()
    kern.run("A", pivot, pivot, pivot, pivot, bounds[k], bounds[k], bounds[k], n, stats=stats)
    assert stats.updates == kernel_updates(spec, "A", n, bounds, k, k, k)


def test_ge_copy_fanout_formula():
    """The paper's formula: A makes 2(r-k-1) + (r-k-1)^2 copies for GE."""
    spec = GaussianEliminationGep()
    r = 6
    counts = analyze_solve(spec, 24, r)
    for it in counts.iterations:
        expect = 2 * (r - it.k - 1) + (r - it.k - 1) ** 2
        if it.nb or it.nc:
            assert it.im_single_source_blocks == expect


def test_fw_no_pivot_copies_to_d():
    """FW's f ignores c[k,k]: A only fans out to B and C."""
    spec = FloydWarshallGep()
    counts = analyze_solve(spec, 24, 4)
    for it in counts.iterations:
        assert it.im_single_source_blocks == it.nb + it.nc


def test_counts_totals_and_block_maths():
    counts = analyze_solve(FloydWarshallGep(), 32, 4)
    assert isinstance(counts, SolveCounts)
    assert counts.block == 8
    assert counts.tile_bytes(8) == 8 * 8 * 8
    assert counts.final_collect_blocks == 16
    assert counts.total_updates() == 32**3
    assert counts.initial_shuffle_blocks == 16


def test_counts_requires_divisibility():
    with pytest.raises(ValueError):
        analyze_solve(FloydWarshallGep(), 30, 4)


def test_ge_last_iteration_a_only():
    counts = analyze_solve(GaussianEliminationGep(), 24, 4)
    last = counts.iterations[-1]
    assert last.nb == last.nc == last.nd == 0
    assert last.cb_collect_blocks == 1
    assert last.updates["B"] == last.updates["C"] == last.updates["D"] == 0


def test_ge_pivot_truncation_counts():
    """GE with n_pivots < n performs no updates in trailing blocks."""
    spec = GaussianEliminationGep(n_pivots=10)
    counts = analyze_solve(spec, 24, 4)
    stats_total = counts.total_updates()
    # independent: sum over active pivots of (n-1-k)^2
    expect = sum((24 - 1 - k) ** 2 for k in range(10))
    assert stats_total == expect
