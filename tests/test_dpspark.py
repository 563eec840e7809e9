"""Distributed GEP drivers (IM/CB) — integration against references."""

import numpy as np
import pytest

from repro.core.api import run_gep
from repro.core.blocked import blocked_gep_inplace
from repro.core.dpspark import GepSparkSolver, make_kernel
from repro.core.gep import (
    FloydWarshallGep,
    GaussianEliminationGep,
    TransitiveClosureGep,
    gep_reference_vectorized,
)
from repro.kernels import KernelStats
from repro.sparkle import FaultPlan, FaultSpec, GridPartitioner, SparkleContext
from repro.baselines import numpy_floyd_warshall

from .conftest import assert_tables_equal, fw_table, ge_table, tc_table

SPECS = {
    "fw": (FloydWarshallGep(), fw_table),
    "ge": (GaussianEliminationGep(), ge_table),
    "tc": (TransitiveClosureGep(), tc_table),
}


def _solve(spec, table, strategy, kernel_kind, r, **kw):
    with SparkleContext(num_executors=3, cores_per_executor=2) as sc:
        kernel = make_kernel(spec, kernel_kind, r_shared=2, base_size=4)
        solver = GepSparkSolver(
            spec, sc, r=r, kernel=kernel, strategy=strategy, **kw
        )
        return solver.solve(table)


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("strategy", ["im", "cb"])
@pytest.mark.parametrize("kernel", ["iterative", "recursive"])
@pytest.mark.parametrize("r", [1, 2, 5])
def test_all_quadrants_match_reference(name, strategy, kernel, r):
    spec, make = SPECS[name]
    t = make(20, seed=3)
    expect = gep_reference_vectorized(spec, t)
    got, report = _solve(spec, t, strategy, kernel, r)
    assert_tables_equal(got, expect)
    assert report.strategy == strategy
    assert report.n == 20 and report.r == r


def test_uneven_tiles_supported():
    spec, make = SPECS["fw"]
    t = make(17, seed=1)  # 17 not divisible by 4
    expect = gep_reference_vectorized(spec, t)
    got, _ = _solve(spec, t, "im", "iterative", 4)
    assert_tables_equal(got, expect)


def test_custom_grid_partitioner():
    spec, make = SPECS["fw"]
    t = make(16, seed=2)
    expect = gep_reference_vectorized(spec, t)
    with SparkleContext(2, 2) as sc:
        solver = GepSparkSolver(
            spec, sc, r=4, kernel=make_kernel(spec, "iterative"),
            strategy="im", partitioner=GridPartitioner(8, 4),
        )
        got, _ = solver.solve(t)
    assert_tables_equal(got, expect)


def test_grid_partitioner_reduces_network_copies():
    """§VI future work: a tile-aware partitioner cuts shuffle traffic."""
    spec, make = SPECS["ge"]
    t = make(24, seed=5)

    def run(partitioner):
        with SparkleContext(2, 2, default_parallelism=8) as sc:
            solver = GepSparkSolver(
                spec, sc, r=4, kernel=make_kernel(spec, "iterative"),
                strategy="im", partitioner=partitioner,
            )
            out, report = solver.solve(t)
            return out, report.engine_metrics.total_shuffle_bytes

    out_hash, bytes_hash = run(None)
    out_grid, bytes_grid = run(GridPartitioner(8, 4))
    assert_tables_equal(out_hash, out_grid)
    # Identical logical plan => identical shuffled volume; the partitioner
    # changes placement (and hence network vs local), not the byte count.
    assert bytes_grid == bytes_hash


def test_report_summary_contents():
    spec, make = SPECS["fw"]
    t = make(12, seed=4)
    got, report = _solve(spec, t, "cb", "recursive", 3)
    summary = report.summary()
    assert summary["spec"] == "fw-apsp"
    assert summary["strategy"] == "cb"
    assert summary["kernel"]["kind"] == "recursive"
    assert summary["kernel_updates"] == 12**3
    assert summary["shuffle_bytes"] > 0
    assert summary["storage_bytes_written"] > 0


def test_kernel_stats_updates_exact():
    spec, make = SPECS["ge"]
    n = 18
    t = make(n, seed=6)
    got, report = _solve(spec, t, "im", "iterative", 3)
    expect = sum((n - 1 - k) ** 2 for k in range(n))
    assert report.kernel_stats.updates == expect


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("strategy", ["im", "cb"])
@pytest.mark.parametrize("kernel", ["iterative", "recursive"])
def test_task_local_kernel_stats_equal_the_serial_oracle(name, strategy, kernel):
    """Tasks record into a private ``KernelStats`` and merge once; what
    the report carries must be what one serial sink sees on the blocked
    oracle — totals, per-case invocations, and the invocation log as a
    multiset (tasks finish in any order)."""
    spec, make = SPECS[name]
    n, r = 18, 4
    t = make(n, seed=6)
    oracle = KernelStats(keep_log=True)
    local_kernel = make_kernel(spec, kernel, r_shared=2, base_size=4)
    expect = blocked_gep_inplace(spec, t.copy(), r, local_kernel, stats=oracle)

    with SparkleContext(num_executors=3, cores_per_executor=2) as sc:
        solver = GepSparkSolver(
            spec, sc, r=r, strategy=strategy,
            kernel=make_kernel(spec, kernel, r_shared=2, base_size=4),
        )
        solver.stats.keep_log = True
        got, report = solver.solve(t)
    assert_tables_equal(got, expect)
    stats = report.kernel_stats
    assert stats.updates == oracle.updates
    assert stats.invocations == oracle.invocations
    assert stats.recursion_calls == oracle.recursion_calls
    assert stats.parallel_stages == oracle.parallel_stages
    assert stats.max_parallel_width == oracle.max_parallel_width
    key = lambda inv: (inv.case, inv.rows, inv.cols, inv.pivot, inv.updates)
    assert sorted(stats.log, key=key) == sorted(oracle.log, key=key)
    assert report.summary()["kernel_invocations"] == oracle.total_invocations


def test_negative_cycle_table_with_infinities_matches_reference():
    """End to end through the hoisted guard: a table with a negative
    cycle, unreachable pairs (+inf) and already-diverged distances (-inf)
    makes ``inf + (-inf)`` occur inside tile kernels (tiles straddle the
    two components); the spark engine
    must still equal the per-``k`` guarded reference."""
    rng = np.random.default_rng(11)
    n, cut = 24, 14
    t = rng.integers(1, 9, size=(n, n)).astype(float)
    t[rng.random((n, n)) < 0.4] = np.inf
    t[:cut, cut:] = t[cut:, :cut] = np.inf  # two components: +inf survives
    np.fill_diagonal(t, 0.0)
    t[2, 7], t[7, 2] = -5.0, 1.0  # negative cycle 2 -> 7 -> 2
    t[3, 9] = -np.inf  # an already-diverged distance in the input
    spec = FloydWarshallGep()
    want, _ = run_gep(spec, t, engine="reference")
    assert np.isneginf(want).any() and np.isposinf(want).any()
    for kernel in ("iterative", "recursive"):
        got, _ = run_gep(
            spec, t, engine="spark", r=4, kernel=kernel, base_size=4
        )
        assert got.tobytes() == want.tobytes()


def test_driver_survives_task_failures():
    spec, make = SPECS["fw"]
    t = make(12, seed=7)
    expect = gep_reference_vectorized(spec, t)

    plan = FaultPlan(11, [FaultSpec("kill", rate=0.25)])
    with SparkleContext(2, 2, fault_plan=plan) as sc:
        solver = GepSparkSolver(
            spec, sc, r=3, kernel=make_kernel(spec, "iterative"), strategy="im"
        )
        got, _ = solver.solve(t)
        assert sc.metrics.tasks_retried >= 1
    assert_tables_equal(got, expect)


def test_cb_failure_recovery():
    spec, make = SPECS["ge"]
    t = make(12, seed=8)
    expect = gep_reference_vectorized(spec, t)

    plan = FaultPlan(
        5, [FaultSpec("kill", rate=0.2), FaultSpec("storage", rate=0.2)]
    )
    with SparkleContext(2, 2, fault_plan=plan) as sc:
        solver = GepSparkSolver(
            spec, sc, r=3, kernel=make_kernel(spec, "iterative"), strategy="cb"
        )
        got, _ = solver.solve(t)
    assert_tables_equal(got, expect)


def test_validation_errors():
    spec = FloydWarshallGep()
    with SparkleContext(1, 1) as sc:
        with pytest.raises(ValueError):
            GepSparkSolver(spec, sc, r=2, kernel=make_kernel(spec, "iterative"),
                           strategy="bogus")
        with pytest.raises(ValueError):
            GepSparkSolver(spec, sc, r=0, kernel=make_kernel(spec, "iterative"))
        solver = GepSparkSolver(spec, sc, r=2, kernel=make_kernel(spec, "iterative"))
        with pytest.raises(ValueError):
            solver.solve(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        make_kernel(spec, "quantum")


def test_matches_independent_numpy_fw():
    spec, make = SPECS["fw"]
    t = make(24, seed=9)
    got, _ = _solve(spec, t, "im", "recursive", 4)
    np.testing.assert_allclose(got, numpy_floyd_warshall(t))


def test_im_and_cb_produce_identical_tables():
    for name in SPECS:
        spec, make = SPECS[name]
        t = make(15, seed=11)
        im, _ = _solve(spec, t, "im", "iterative", 3)
        cb, _ = _solve(spec, t, "cb", "iterative", 3)
        assert_tables_equal(im, cb)


@pytest.mark.parametrize("name", SPECS)
def test_bcast_strategy_matches_reference(name):
    """The broadcast-distribution ablation (beyond the paper's IM/CB)."""
    spec, make = SPECS[name]
    t = make(18, seed=13)
    expect = gep_reference_vectorized(spec, t)
    got, report = _solve(spec, t, "bcast", "recursive", 3)
    assert_tables_equal(got, expect)
    assert report.engine_metrics.broadcast_bytes > 0
    # bcast replaces both the IM copy shuffles and the CB storage reads.
    assert report.engine_metrics.storage_gets == 0


def test_bcast_uses_less_shuffle_than_im():
    spec, make = SPECS["ge"]
    t = make(24, seed=14)
    _, im = _solve(spec, t, "im", "iterative", 4)
    _, bc = _solve(spec, t, "bcast", "iterative", 4)
    assert (
        bc.engine_metrics.total_shuffle_bytes
        < im.engine_metrics.total_shuffle_bytes
    )


@pytest.mark.parametrize(
    "name, n, r, strategy, plan, work, kernel_calls",
    [
        # toy scale, then the benchmark's two fine-tile (8x8) shapes once
        # each: fw_fine_im and ge_fine_cb
        ("fw", 32, 4, "im", (1, 22, 168, 191_784, 293_160, 0), (32_768, 64), 32),
        ("fw", 192, 24, "im",
         (1, 122, 968, 43_773_744, 65_670_960, 0), (7_077_888, 13_824), 450),
        ("ge", 256, 32, "cb",
         (64, 97, 764, 17_842_176, 68_665_344, 16_506_880), (5_559_680, 11_440), 488),
    ],
)
def test_stacked_calls_leave_plan_and_books_alone(
    name, n, r, strategy, plan, work, kernel_calls, monkeypatch
):
    """A task's D tiles, and its B / C tiles as pivot-row / pivot-column
    panels, reach the kernel a stack at a time — far fewer
    ``IterativeKernel.run`` calls — and each grid key is hashed once per
    solve (r², against 82,320 hashes on the 24x24 grid when every record
    was hashed); nothing the engine counts may notice: the blocked
    oracle's output, the plan (jobs / stages / tasks), shuffle bytes
    written and read, storage bytes read, and one kernel invocation
    recorded per tile, all at their pre-stacking values."""
    from repro.kernels import IterativeKernel
    from repro.sparkle import partitioner

    ran, hashed = [], []
    run, stable_hash = IterativeKernel.run, partitioner._stable_hash
    monkeypatch.setattr(
        IterativeKernel, "run", lambda self, *a, **kw: ran.append(1) or run(self, *a, **kw)
    )
    monkeypatch.setattr(
        partitioner, "_stable_hash", lambda key: hashed.append(1) or stable_hash(key)
    )
    spec, make = SPECS[name]
    table = make(n, seed=1)
    with SparkleContext(num_executors=2, cores_per_executor=1) as sc:
        got, report = run_gep(
            spec, table, engine="spark", r=r, strategy=strategy, sc=sc,
            collect_stats=True,
        )
    assert len(ran) == kernel_calls
    assert len(hashed) == r * r
    del ran[:]
    want, _ = run_gep(spec, table, engine="local", r=r)
    assert np.array_equal(got, want)
    s = report.summary()
    read = sum(
        stage.shuffle_bytes_read
        for job in report.engine_metrics.jobs
        for stage in job.stages
    )
    assert (
        s["jobs"], s["stages"], s["tasks"], s["shuffle_bytes"], read,
        s["storage_bytes_read"],
    ) == plan
    assert (s["kernel_updates"], s["kernel_invocations"]) == work
    assert len(ran) == work[1]  # the oracle still calls once per tile


def test_stacked_tasks_stay_pure_under_failed_attempts(monkeypatch):
    """Retry purity on 8x8 tiles, where every D task is stacked and every
    B / C task's tiles are a panel: attempts die before they start
    (``kill``, landing on B / C tasks too) and after their kernels ran
    (``overflow`` fails the map-output write), so tasks recompute from
    the same inputs — for GE and FW under IM, and GE under CB.  GE would
    double-subtract a mutated tile; no input tile's bytes may ever change
    and every result owns its memory."""
    from repro.kernels import IterativeKernel
    from repro.sparkle.chaos import CURRENT_TASK

    seen = []  # (input tile, its bytes when the kernel batch got it)
    bc_sites, killed, panels = set(), set(), []
    batch = GepSparkSolver._run_tile_batch
    task_fault = FaultPlan.task_fault
    run = IterativeKernel.run

    def watched(self, calls):
        seen.extend((call[1], call[1].tobytes()) for call in calls)
        if any(call[0] in "BC" for call in calls):
            tc = CURRENT_TASK.get()
            bc_sites.add((tc.stage_id, tc.partition))
        results = batch(self, calls)
        for out in results:
            assert out.base is None and out.flags.writeable and out.flags.owndata
        return results

    def noted_fault(self, stage_id, partition, attempt):
        fault = task_fault(self, stage_id, partition, attempt)
        if fault == "kill":
            killed.add((stage_id, partition))
        return fault

    def noted_run(self, case, x, *rest, **kw):
        if case in "BC" and x.ndim == 3:
            panels.append(len(x))
        return run(self, case, x, *rest, **kw)

    monkeypatch.setattr(GepSparkSolver, "_run_tile_batch", watched)
    monkeypatch.setattr(FaultPlan, "task_fault", noted_fault)
    monkeypatch.setattr(IterativeKernel, "run", noted_run)
    for name, strategy, faults in [
        ("ge", "im", [FaultSpec("kill", rate=0.2), FaultSpec("overflow", rate=0.3)]),
        ("fw", "im", [FaultSpec("kill", rate=0.3)]),
        ("ge", "cb", [FaultSpec("kill", rate=0.3)]),
    ]:
        spec, make = SPECS[name]
        table = make(64, seed=4)
        want, _ = run_gep(spec, table, engine="local", r=8)
        del seen[:], panels[:]
        bc_sites.clear()
        killed.clear()
        with SparkleContext(2, 1, fault_plan=FaultPlan(23, faults)) as sc:
            got, _ = run_gep(spec, table, engine="spark", r=8, strategy=strategy, sc=sc)
            if strategy == "im" and name == "ge":
                assert sc.metrics.transient_io_failures >= 1
                assert sc.metrics.tasks_retried > sc.metrics.transient_io_failures
        assert got.tobytes() == want.tobytes()
        assert seen and all(tile.tobytes() == before for tile, before in seen)
        assert panels and killed & bc_sites, (name, strategy)