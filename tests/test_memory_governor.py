"""Unified memory governor: spill-to-disk, backpressure, degradation.

The invariant under test: a solve whose working set exceeds the memory
budget must *complete* — by spilling cached blocks and staged shuffle
outputs to checksummed disk, queueing task launches under pressure, and
(when armed) degrading IM→CB at an outer-iteration boundary — and the
result must be bit-identical to an unbudgeted run.  The ``mem_squeeze``
chaos kind shrinks the budget mid-solve under the seeded determinism
contract: same seed, same pressure-transition trace, same counters.
"""

import json
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main as cli_main
from repro.core.dpspark import GepSparkSolver, make_kernel
from repro.core.gep import FloydWarshallGep
from repro.service import SolverService
from repro.sparkle import (
    EngineMetrics,
    FaultPlan,
    FaultSpec,
    MemoryManager,
    PRESSURE_CRITICAL,
    PRESSURE_OK,
    PRESSURE_PRESSURED,
    ShuffleFetchFailed,
    SolveRequest,
    SparkleContext,
    TaskError,
)
from repro.sparkle.durable import DurableBlockStore
from repro.sparkle.shuffle import ShuffleManager
from repro.sparkle.storage import BlockManager

from .conftest import assert_quiescent, fw_table

pytestmark = pytest.mark.memory

SPEC = FloydWarshallGep()
TABLE = fw_table(16, seed=3)
R = 4

#: Deliberately below the IM working set for TABLE/R: the engine
#: completes under it as a memory budget only by spilling.
TIGHT_BUDGET = 2048


def flip_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


def spark_solve(
    table,
    *,
    strategy="im",
    budget=None,
    plan=None,
    degrade=False,
    spill_dir=None,
):
    sc = SparkleContext(
        2,
        1,
        fault_plan=plan,
        memory_budget_bytes=budget,
        spill_dir=spill_dir,
    )
    try:
        solver = GepSparkSolver(
            SPEC,
            sc,
            r=R,
            kernel=make_kernel(SPEC, "iterative"),
            strategy=strategy,
            degrade_on_pressure=degrade,
        )
        out, report = solver.solve(table)
    finally:
        sc.stop()
    return out, report, sc.metrics


_EXPECTED = {}


def expected_result():
    """The unbudgeted IM result (computed once; the bit-identity oracle)."""
    if "out" not in _EXPECTED:
        _EXPECTED["out"], _, _ = spark_solve(TABLE)
    return _EXPECTED["out"]


# ----------------------------------------------------------------------
# MemoryManager units
# ----------------------------------------------------------------------
class TestMemoryManager:
    def test_reserve_release_accounting(self):
        mm = MemoryManager(1000)
        assert mm.reserve("execution", "e0", 400)
        assert mm.reserve("storage", "e1", 500)
        assert mm.live_bytes == 900
        assert not mm.reserve("execution", "e0", 200)  # 1100 > 1000
        mm.release("storage", "e1", 500)
        assert mm.reserve("execution", "e0", 200)
        u = mm.usage()
        assert u["execution_bytes"] == 600
        assert u["storage_bytes"] == 0
        assert u["by_owner"]["execution"] == {"e0": 600}

    def test_unknown_pool_rejected(self):
        mm = MemoryManager(100)
        with pytest.raises(ValueError):
            mm.reserve("heap", "e0", 1)
        with pytest.raises(ValueError):
            mm.release("heap", "e0", 1)

    def test_forced_grant_oversubscribes_and_is_metered(self):
        metrics = EngineMetrics()
        mm = MemoryManager(100, metrics=metrics)
        assert mm.reserve("execution", "e0", 90)
        assert mm.reserve("execution", "e0", 90, force=True)
        assert mm.live_bytes == 180
        assert metrics.forced_grants == 1
        # a force that *fits* is not an oversubscription
        mm.release("execution", "e0", 180)
        assert mm.reserve("execution", "e0", 10, force=True)
        assert metrics.forced_grants == 1

    def test_over_release_clamps_to_zero(self):
        mm = MemoryManager(100)
        mm.reserve("storage", "e0", 30)
        mm.release("storage", "e0", 90)
        assert mm.live_bytes == 0
        assert mm.usage()["by_owner"]["storage"] == {}

    def test_pressure_transitions_are_traced(self):
        metrics = EngineMetrics()
        mm = MemoryManager(1000, metrics=metrics)
        assert mm.pressure() == PRESSURE_OK
        mm.reserve("storage", "e0", 750)
        assert mm.pressure() == PRESSURE_PRESSURED
        mm.reserve("storage", "e0", 200)
        assert mm.pressure() == PRESSURE_CRITICAL
        mm.release("storage", "e0", 900)
        assert mm.pressure() == PRESSURE_OK
        assert metrics.pressure_transitions == [
            "ok->pressured",
            "pressured->critical",
            "critical->ok",
        ]

    def test_first_admission_always_granted(self):
        # Budget already exhausted by storage: the first task must still
        # be admitted (deadlock-freedom), oversubscribing the budget.
        mm = MemoryManager(100, task_quantum_bytes=60)
        mm.reserve("storage", "e0", 100)
        grant = mm.admit_task()
        assert grant == 60
        assert mm.live_bytes == 160
        mm.finish_task(grant)
        assert mm.live_bytes == 100

    def test_admission_backpressure_queues_and_wakes(self):
        metrics = EngineMetrics()
        mm = MemoryManager(100, task_quantum_bytes=60, metrics=metrics)
        first = mm.admit_task()
        admitted = threading.Event()

        def second_task():
            g = mm.admit_task()
            admitted.set()
            mm.finish_task(g)

        t = threading.Thread(target=second_task, daemon=True)
        t.start()
        # 60 + 60 > 100 and a task is already admitted: must queue.
        assert not admitted.wait(0.15)
        mm.finish_task(first)
        assert admitted.wait(2.0)
        t.join(timeout=2.0)
        assert metrics.admission_waits == 1
        assert metrics.admission_wait_seconds > 0.0
        assert mm.live_bytes == 0

    def test_squeeze_shrinks_with_quantum_floor(self):
        metrics = EngineMetrics()
        mm = MemoryManager(1000, task_quantum_bytes=100, metrics=metrics)
        assert mm.squeeze(0.5) == 500
        assert mm.squeeze(0.1) == 100  # floored at one task quantum
        assert mm.squeeze(0.5) == 100
        assert metrics.mem_squeezes == 3
        with pytest.raises(ValueError):
            mm.squeeze(0.0)
        with pytest.raises(ValueError):
            mm.squeeze(1.5)

    def test_squeeze_can_transition_pressure(self):
        metrics = EngineMetrics()
        mm = MemoryManager(1000, task_quantum_bytes=10, metrics=metrics)
        mm.reserve("storage", "e0", 500)
        assert mm.pressure() == PRESSURE_OK
        mm.squeeze(0.5)
        assert mm.pressure() == PRESSURE_CRITICAL
        assert "ok->critical" in metrics.pressure_transitions


# ----------------------------------------------------------------------
# BlockManager spill (MEMORY_AND_DISK)
# ----------------------------------------------------------------------
class TestBlockManagerSpill:
    def make(self, tmp_path, budget):
        metrics = EngineMetrics()
        mm = MemoryManager(budget, metrics=metrics, task_quantum_bytes=1)
        store = DurableBlockStore(tmp_path / "spill", metrics=metrics, sync=False)
        bm = BlockManager(mm, spill=store, metrics=metrics)
        return bm, mm, store, metrics

    def test_eviction_spills_and_reads_back(self, tmp_path):
        bm, mm, store, metrics = self.make(tmp_path, 300)
        a, b, c = (np.full(16, float(i)) for i in range(3))  # 128 B each
        bm.put(0, 0, [a])
        bm.put(0, 1, [b])
        bm.put(0, 2, [c])  # 384 B > 300: evicts LRU (0,0) to disk
        assert bm.num_spilled == 1
        assert metrics.blocks_spilled == 1
        assert metrics.spill_bytes_written == 128
        got = bm.get(0, 0)
        np.testing.assert_array_equal(got[0], a)
        assert metrics.spill_reads == 1
        assert metrics.spill_bytes_read == 128
        assert bm.contains(0, 0)
        assert mm.live_bytes <= 300

    def test_memory_only_evicts_by_dropping(self, tmp_path):
        bm, mm, store, metrics = self.make(tmp_path, 300)
        bm.put(0, 0, [np.zeros(16)], level="MEMORY_ONLY")
        bm.put(0, 1, [np.zeros(16)])
        bm.put(0, 2, [np.zeros(16)])  # evicts (0,0), which opted out of disk
        assert bm.get(0, 0) is None  # recompute from lineage
        assert bm.num_spilled == 0
        assert metrics.blocks_spilled == 0

    def test_block_larger_than_budget_goes_disk_only(self, tmp_path):
        bm, mm, store, metrics = self.make(tmp_path, 64)
        big = np.zeros(32)  # 256 B > budget
        bm.put(0, 0, [big])
        assert bm.num_blocks == 0
        assert bm.num_spilled == 1
        assert metrics.blocks_spilled == 1
        assert metrics.spill_bytes_written == 256
        assert bm.contains(0, 0)
        np.testing.assert_array_equal(bm.get(0, 0)[0], big)  # verified read
        assert metrics.spill_reads == 1
        assert mm.live_bytes == 0

    def test_disk_only_puts_race_sweeps_without_tearing_bookkeeping(self, tmp_path):
        # Disk-only puts write outside the lock but must book `_spilled`
        # under it: evict_rdd / contains iterate and read that set.
        bm, mm, store, metrics = self.make(tmp_path, 64)
        big = [np.zeros(32)]  # 256 B > budget: every put is disk-only
        errors, stop = [], threading.Event()

        def guarded(body):
            def run():
                try:
                    while not stop.is_set():
                        body()
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)
            return threading.Thread(target=run)

        counters = [0, 0, 0]

        def putter(rdd_id):
            def body():
                counters[rdd_id] += 1
                bm.put(rdd_id, counters[rdd_id] % 64, big)
            return body

        def sweep():
            bm.evict_rdd(0)
            bm.contains(1, 3)

        threads = [guarded(putter(i)) for i in range(3)] + [guarded(sweep)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            time.sleep(0.5)
            stop.set()
            for t in threads:
                t.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert mm.live_bytes == 0

    def test_corrupt_spill_is_never_served(self, tmp_path):
        bm, mm, store, metrics = self.make(tmp_path, 300)
        bm.put(0, 0, [np.ones(16)])
        bm.put(0, 1, [np.ones(16)])
        bm.put(0, 2, [np.ones(16)])
        assert bm.num_spilled == 1
        flip_byte(store.blocks_dir / store._filename(repr(("cache", 0, 0))))
        assert bm.get(0, 0) is None  # checksum caught it: recompute
        assert metrics.corrupt_blocks_detected == 1
        assert not bm.contains(0, 0)  # marker discarded, put can refresh
        assert bm.get(0, 0) is None

    def test_unpersist_deletes_spill_files(self, tmp_path):
        bm, mm, store, metrics = self.make(tmp_path, 300)
        for p in range(3):
            bm.put(7, p, [np.ones(16)])
        assert bm.num_spilled == 1
        bm.evict_rdd(7)
        assert bm.num_blocks == 0
        assert bm.num_spilled == 0
        assert len(store) == 0
        assert mm.live_bytes == 0


# ----------------------------------------------------------------------
# ShuffleManager spill
# ----------------------------------------------------------------------
def bucket(value):
    """One single-pair reduce bucket: 16 (key) + value bytes."""
    return {0: [(0, value)]}


class TestShuffleManagerSpill:
    def make(self, tmp_path, budget):
        metrics = EngineMetrics()
        mm = MemoryManager(budget, metrics=metrics, task_quantum_bytes=1)
        store = DurableBlockStore(tmp_path / "spill", metrics=metrics, sync=False)
        sm = ShuffleManager(mm, spill=store, metrics=metrics)
        return sm, mm, store, metrics

    def test_overflow_spills_oldest_and_fetches_back(self, tmp_path):
        sm, mm, store, metrics = self.make(tmp_path, 300)
        sid = sm.new_shuffle_id()
        for mp in range(3):  # 144 B each; third write exceeds 300
            sm.write(sid, mp, bucket(np.full(16, float(mp))))
        assert sm.num_spilled == 1
        assert metrics.shuffle_blocks_spilled == 1
        assert sm.has_output(sid, 0)
        items, nbytes, _remote = sm.fetch(sid, 0, 3)
        assert [v[0] for _k, v in [(k, v) for k, v in items]] == [0.0, 1.0, 2.0]
        assert metrics.spill_reads == 1
        assert mm.live_bytes <= 300

    def test_no_spill_store_drops_oldest_for_recompute(self, tmp_path):
        metrics = EngineMetrics()
        mm = MemoryManager(300, metrics=metrics, task_quantum_bytes=1)
        sm = ShuffleManager(mm, metrics=metrics)
        sid = sm.new_shuffle_id()
        for mp in range(3):
            sm.write(sid, mp, bucket(np.ones(16)))
        assert not sm.has_output(sid, 0)  # dropped, not spilled
        with pytest.raises(ShuffleFetchFailed) as exc_info:
            sm.fetch(sid, 0, 3)
        assert exc_info.value.missing == (0,)

    def test_corrupt_spill_surfaces_as_fetch_failure(self, tmp_path):
        sm, mm, store, metrics = self.make(tmp_path, 300)
        sid = sm.new_shuffle_id()
        for mp in range(3):
            sm.write(sid, mp, bucket(np.ones(16)))
        assert sm.num_spilled == 1
        flip_byte(store.blocks_dir / store._filename(repr(("shuffle", sid, 0))))
        with pytest.raises(ShuffleFetchFailed) as exc_info:
            sm.fetch(sid, 0, 3)
        assert exc_info.value.missing == (0,)
        assert metrics.corrupt_blocks_detected == 1
        # the scheduler's recompute path re-stages the output; idempotent
        sm.write(sid, 0, bucket(np.ones(16)))
        items, _n, _r = sm.fetch(sid, 0, 3)
        assert len(items) == 3

    def test_release_reclaims_memory_and_spill_files(self, tmp_path):
        sm, mm, store, metrics = self.make(tmp_path, 300)
        sid = sm.new_shuffle_id()
        for mp in range(3):
            sm.write(sid, mp, bucket(np.ones(16)))
        sm.release(sid)
        assert sm.live_bytes() == 0
        assert sm.num_spilled == 0
        assert len(store) == 0
        assert mm.live_bytes == 0

    def test_executor_loss_drops_spilled_outputs_too(self, tmp_path):
        sm, mm, store, metrics = self.make(tmp_path, 300)
        sid = sm.new_shuffle_id()
        for mp in range(3):
            sm.write(sid, mp, bucket(np.ones(16)))
        dropped = sm.drop_executor_outputs(lambda mp: mp == 0)
        assert (sid, 0) in dropped
        assert not sm.has_output(sid, 0)


# ----------------------------------------------------------------------
# Stage abort cleans up partial map outputs (satellite 3)
# ----------------------------------------------------------------------
class TestStageAbortCleanup:
    def test_capacity_overflow_mid_stage_leaves_nothing_staged(self):
        # The last of the 4 map tasks dies once another has staged its
        # ~320 B, so the abort finds a partially materialized shuffle.
        staged_at_abort = []
        with SparkleContext(2, 1) as sc:
            sm = sc._shuffle_manager

            def mapper(x):
                if x == 15:
                    deadline = time.monotonic() + 5.0
                    while sm.live_bytes() == 0 and time.monotonic() < deadline:
                        time.sleep(0.001)
                    staged_at_abort.append(sm.live_bytes())
                    raise ValueError("map task dies mid-stage")
                return (x % 4, np.ones(8))

            pairs = sc.parallelize(range(16), 4).map(mapper)
            with pytest.raises(TaskError) as exc_info:
                pairs.reduceByKey(lambda a, b: a + b).collect()
            assert isinstance(exc_info.value.__cause__, ValueError)
            assert staged_at_abort[0] > 0
            assert sm.live_bytes() == 0
            assert sc.memory_manager.live_bytes == 0
            assert sc.metrics.shuffle_partial_cleanups >= 1


# ----------------------------------------------------------------------
# End-to-end: budgeted solves
# ----------------------------------------------------------------------
class TestBudgetedSolve:
    def test_ungoverned_engine_fails_where_governor_completes(self):
        # A budget below the IM working set completes, bit-identical to
        # the unbudgeted run, by spilling to disk.
        out, report, metrics = spark_solve(TABLE, budget=TIGHT_BUDGET)
        assert np.array_equal(out, expected_result())
        mem = report.memory
        assert mem["spill_bytes_written"] > 0
        assert mem["shuffle_blocks_spilled"] > 0
        assert mem["spill_reads"] > 0
        assert report.extras["memory_budget"]["budget_bytes"] == TIGHT_BUDGET

    def test_spill_dir_is_honored(self, tmp_path):
        spill = tmp_path / "myspill"
        out, report, _metrics = spark_solve(
            TABLE, budget=TIGHT_BUDGET, spill_dir=str(spill)
        )
        assert np.array_equal(out, expected_result())
        assert (spill / "blocks").is_dir()

    def test_mem_squeeze_is_deterministic_per_seed(self):
        plan = lambda: FaultPlan(11, [FaultSpec("mem_squeeze", 1.0)])  # noqa: E731
        runs = [
            spark_solve(TABLE, budget=4 * TIGHT_BUDGET, plan=plan())
            for _ in range(2)
        ]
        (out_a, rep_a, met_a), (out_b, rep_b, met_b) = runs
        assert np.array_equal(out_a, out_b)
        assert np.array_equal(out_a, expected_result())
        assert met_a.mem_squeezes == met_b.mem_squeezes > 0
        assert met_a.pressure_transitions == met_b.pressure_transitions
        a, b = rep_a.memory, rep_b.memory
        for key in (
            "spill_bytes_written",
            "blocks_spilled",
            "shuffle_blocks_spilled",
            "forced_grants",
        ):
            assert a[key] == b[key], key
        # a different seed makes different squeeze decisions
        _out_c, rep_c, met_c = spark_solve(
            TABLE,
            budget=4 * TIGHT_BUDGET,
            plan=FaultPlan(12, [FaultSpec("mem_squeeze", 1.0)]),
        )
        assert np.array_equal(_out_c, expected_result())

    def test_degradation_switches_im_to_cb_bit_identically(self):
        plan = FaultPlan(11, [FaultSpec("mem_squeeze", 1.0)])
        out, report, metrics = spark_solve(
            TABLE, budget=TIGHT_BUDGET, plan=plan, degrade=True
        )
        assert np.array_equal(out, expected_result())
        degraded = report.extras["degraded"]
        assert degraded["from"] == "im"
        assert degraded["to"] == "cb"
        assert degraded["at_iteration"] >= 0
        assert metrics.strategy_degradations == 1
        assert report.memory["strategy_degradations"] == 1

    def test_degradation_is_noop_for_cb(self):
        plan = FaultPlan(11, [FaultSpec("mem_squeeze", 1.0)])
        out, report, metrics = spark_solve(
            TABLE, budget=TIGHT_BUDGET, plan=plan, degrade=True, strategy="cb"
        )
        assert np.array_equal(out, expected_result())
        assert "degraded" not in report.extras
        assert metrics.strategy_degradations == 0

    @given(
        budget=st.integers(min_value=1500, max_value=20000),
        seed=st.integers(min_value=0, max_value=50),
        strategy=st.sampled_from(["im", "cb"]),
        squeeze_rate=st.sampled_from([0.0, 1.0]),
    )
    @settings(max_examples=8, deadline=None)
    def test_any_budget_is_bit_identical(
        self, budget, seed, strategy, squeeze_rate
    ):
        plan = FaultPlan(seed, [FaultSpec("mem_squeeze", squeeze_rate)])
        out, _report, _metrics = spark_solve(
            TABLE, budget=budget, plan=plan, degrade=True, strategy=strategy
        )
        assert np.array_equal(out, expected_result())


# ----------------------------------------------------------------------
# Ledger conservation: every context has a governor, and it ends at zero
# ----------------------------------------------------------------------
@pytest.mark.parametrize("budget", [None, 8 * TIGHT_BUDGET])
@pytest.mark.parametrize("backend", ["threads", "processes"])
@pytest.mark.parametrize("strategy", ["im", "cb", "bcast"])
def test_ledgers_return_to_zero_on_every_context(strategy, backend, budget):
    with SparkleContext(2, 1, backend=backend, memory_budget_bytes=budget) as sc:
        mm = sc.memory_manager
        assert mm.bounded is (budget is not None)
        solver = GepSparkSolver(
            SPEC, sc, r=R, kernel=make_kernel(SPEC, "iterative"), strategy=strategy
        )
        out, report = solver.solve(TABLE)
        assert np.array_equal(out, expected_result())
        assert ("memory_budget" in report.extras) is mm.bounded
        if not mm.bounded:
            assert sc.spill_store is None
            assert sc.metrics.forced_grants == sc.metrics.admission_waits == 0
            assert sc.metrics.pressure_transitions == []
        sc.reclaim_solve_state()
        assert_quiescent(sc)


@pytest.mark.timeout(120)
def test_ledgers_return_to_zero_after_a_service_round():
    request = SolveRequest(
        spec=SPEC, table=TABLE, r=R, kernel=make_kernel(SPEC, "iterative"),
        tenant="acme",
    )
    with SparkleContext(2, 1) as sc:
        service = SolverService(sc)
        try:
            miss = service.solve(request, timeout=60)
            hit = service.solve(request, timeout=60)
            assert (miss.from_cache, hit.from_cache) == (False, True)
            # the cached result is charged to the (unbounded) ledgers
            assert sc.memory_manager.usage()["tenants"]["acme"]["held_bytes"] > 0
        finally:
            service.stop()
        assert_quiescent(sc)


# ----------------------------------------------------------------------
# CLI: --memory-budget / --report / memstat
# ----------------------------------------------------------------------
class TestCli:
    def test_budgeted_solve_and_memstat_roundtrip(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = cli_main(
            [
                "solve", "apsp", "--n", "16", "--engine", "spark",
                "--r", "4", "--kernel", "iterative",
                "--executors", "2", "--cores", "1",
                "--memory-budget", str(TIGHT_BUDGET),
                "--report", str(report_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "memory:" in out
        summary = json.loads(report_path.read_text())
        assert summary["spill_bytes_written"] > 0
        rc = cli_main(["memstat", str(report_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spill_bytes_written" in out
        assert "pressure_transitions" in out

    def test_memstat_rejects_non_memory_reports(self, tmp_path, capsys):
        path = tmp_path / "not_a_report.json"
        path.write_text(json.dumps({"hello": 1}))
        assert cli_main(["memstat", str(path)]) == 2
        assert cli_main(["memstat", str(tmp_path / "missing.json")]) == 2

    def test_flag_validation(self, capsys):
        assert (
            cli_main(["solve", "apsp", "--n", "16", "--memory-budget", "4096"])
            == 2
        )
        assert (
            cli_main(["solve", "apsp", "--n", "16", "--degrade-on-pressure"])
            == 2
        )
        assert (
            cli_main(
                ["solve", "apsp", "--n", "16", "--engine", "spark",
                 "--spill-dir", "/tmp/x"]
            )
            == 2
        )


@pytest.mark.parametrize(
    "context_kw, solver_kw, message",
    [
        ({"spill_dir": "spill"}, {}, "spill_dir requires memory_budget_bytes"),
        ({}, {"degrade_on_pressure": True}, "degrade_on_pressure requires"),
    ],
    ids=["spill_dir-unbounded", "degrade_on_pressure-unbounded"],
)
def test_owner_refuses_a_setting_it_would_ignore(
    tmp_path, monkeypatch, context_kw, solver_kw, message
):
    """A setting that cannot act on this context raises at its owner
    instead of being a silent no-op: no spill without a budget, no
    pressure degrade on an unbounded governor."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match=message):
        with SparkleContext(2, 1, **context_kw) as sc:
            GepSparkSolver(
                SPEC, sc, r=2, kernel=make_kernel(SPEC, "iterative"), **solver_kw
            )
    assert list(tmp_path.iterdir()) == []
