"""Scheduler recovery units: fixed placement, fetch-failure
recomputation, retry exhaustion, the fault plan's surface.

These pin down the recovery machinery the chaos harness
(tests/test_chaos.py) exercises end-to-end.
"""

import numpy as np
import pytest

from repro.sparkle import (
    ExecutorLost,
    FaultPlan,
    FaultSpec,
    JobAborted,
    ShuffleFetchFailed,
    SparkleContext,
    TransientIOError,
)
from repro.sparkle.chaos import deterministic_fraction

pytestmark = pytest.mark.chaos


# ----------------------------------------------------------------------
# executor loss → lineage recomputation
# ----------------------------------------------------------------------
class TestExecutorLossRecovery:
    def test_dropped_map_outputs_are_recomputed(self):
        # Lose an executor in the result stage, after the map stage
        # materialized: the reducers must recompute the dropped map
        # partitions from lineage and still agree with the clean run.
        def run(plan):
            with SparkleContext(2, 1, fault_plan=plan) as sc:
                got = dict(
                    sc.parallelize([(i % 4, i) for i in range(16)], 4)
                    .reduceByKey(lambda a, b: a + b, 4)
                    .collect()
                )
                return got, sc.metrics.summary("recovery")

        clean, _ = run(None)
        # seed 6 at rate 0.3 loses executors both during the map stage and
        # under the reducers (dropping already-staged map outputs).
        plan = FaultPlan(6, [FaultSpec("lose", rate=0.3)])
        chaotic, recovery = run(plan)
        assert chaotic == clean
        assert recovery["executor_loss_events"] > 0
        assert recovery["partitions_recomputed"] > 0
        assert recovery["tasks_retried"] > 0

    def test_fetch_failed_names_missing_partitions(self):
        with SparkleContext(2, 1) as sc:
            shuffled = (
                sc.parallelize([(i % 2, i) for i in range(8)], 4)
                .reduceByKey(lambda a, b: a + b, 2)
            )
            shuffled.collect()
            sm = sc._shuffle_manager
            dropped = sm.drop_executor_outputs(
                lambda mp: sc._executors.executor_for(mp) == 0
            )
            assert dropped  # executor 0 owned some map outputs
            sid = dropped[0][0]
            with pytest.raises(ShuffleFetchFailed) as err:
                sm.fetch(sid, 0, 4)
            assert set(err.value.missing) == {mp for _sid, mp in dropped}

    def test_stage_reuse_after_loss_recomputes_only_missing(self):
        # Materialize a shuffle, drop one executor's outputs, run a second
        # job over the same RDD: partial stage re-execution recomputes
        # exactly the dropped partitions.
        with SparkleContext(2, 1) as sc:
            shuffled = (
                sc.parallelize([(i % 2, i) for i in range(8)], 4)
                .reduceByKey(lambda a, b: a + b, 2)
            )
            first = dict(shuffled.collect())
            dropped = sc._shuffle_manager.drop_executor_outputs(
                lambda mp: sc._executors.executor_for(mp) == 1
            )
            assert 0 < len(dropped) < 4
            # different downstream action → map stage re-checked, not reused
            assert shuffled.count() == len(first)
            assert sc.metrics.partitions_recomputed == len(dropped)
            rerun = sc.metrics.jobs[-1].stages[0]
            assert rerun.kind == "shuffle-map"
            assert len(rerun.tasks) == len(dropped)


# ----------------------------------------------------------------------
# transient I/O faults
# ----------------------------------------------------------------------
class TestTransientIO:
    def test_storage_read_fault_is_retried(self):
        plan = FaultPlan(17, [FaultSpec("storage", rate=1.0)])
        with SparkleContext(2, 1, fault_plan=plan) as sc:
            sc.shared_storage.put("block", np.arange(4.0))
            # Driver-side read: never faulted.
            np.testing.assert_array_equal(
                sc.shared_storage.get("block"), np.arange(4.0)
            )
            # Executor-side read: first attempt flakes, retry succeeds.
            storage = sc.shared_storage
            got = (
                sc.parallelize([0], 1)
                .map(lambda _x: float(storage.get("block").sum()))
                .collect()
            )
            assert got == [6.0]
            assert sc.metrics.transient_io_failures == 1
            assert sc.metrics.tasks_retried == 1

    def test_broadcast_read_fault_is_retried(self):
        plan = FaultPlan(19, [FaultSpec("bcast", rate=1.0)])
        with SparkleContext(2, 1, fault_plan=plan) as sc:
            bc = sc.broadcast(np.ones(8))
            assert bc.value.sum() == 8.0  # driver-side read: clean
            got = sc.parallelize([1], 1).map(lambda _x: bc.value.sum()).collect()
            assert got == [8.0]
            assert sc.metrics.transient_io_failures == 1

    def test_shuffle_overflow_fault_is_retried(self):
        plan = FaultPlan(23, [FaultSpec("overflow", rate=1.0)])
        with SparkleContext(2, 1, fault_plan=plan) as sc:
            got = dict(
                sc.parallelize([(i % 2, i) for i in range(8)], 2)
                .reduceByKey(lambda a, b: a + b, 2)
                .collect()
            )
            assert got == {0: 12, 1: 16}
            assert sc.metrics.transient_io_failures == 2  # one per map task
            assert plan.fired()["overflow"] == 2


# ----------------------------------------------------------------------
# placement
# ----------------------------------------------------------------------
class TestPlacement:
    def test_faults_never_move_a_partition_and_a_loss_drops_only_its_own(self):
        # Every first attempt dies: 12 faults over 3 executors, four each.
        plan = FaultPlan(29, [FaultSpec("kill", rate=1.0)])
        with SparkleContext(3, 1, fault_plan=plan) as sc:
            got = sc.parallelize(range(12), 12).map(lambda x: -x).collect()
            assert got == [-x for x in range(12)]
            tasks = sc.metrics.jobs[-1].stages[-1].tasks
            assert len(tasks) == 12
            assert all(t.executor == t.partition % 3 for t in tasks)

            shuffled = (
                sc.parallelize([(i, i) for i in range(12)], 12)
                .reduceByKey(lambda a, b: a + b, 3)
            )
            shuffled.collect()
            sid = shuffled.deps[0].shuffle_id
            sm = sc._shuffle_manager
            assert all(sm.has_output(sid, mp) for mp in range(12))
            assert all(
                t.executor == t.partition % 3
                for stage in sc.metrics.jobs[-1].stages
                for t in stage.tasks
            )

            # one injected loss: partition 0's executor, executor 0
            sc.fault_plan = FaultPlan(0, [FaultSpec("lose", rate=1.0)])
            sc.parallelize([0], 1).collect()
            assert sc.fault_plan.fired()["lose"] == 1
            assert sc.metrics.executor_loss_events == 1
            assert [mp for mp in range(12) if not sm.has_output(sid, mp)] == [
                mp for mp in range(12) if mp % 3 == 0
            ]


# ----------------------------------------------------------------------
# retry exhaustion
# ----------------------------------------------------------------------
class TestRetryExhaustion:
    def test_job_aborted_after_budget(self):
        # Faults past every retry: JobAborted carries the last cause.
        plan = FaultPlan(37, [FaultSpec("kill", rate=1.0, max_attempt=10**6)])
        with SparkleContext(1, 1, fault_plan=plan) as sc:
            sc._scheduler.max_task_retries = 2
            with pytest.raises(JobAborted, match="after 3 attempts"):
                sc.parallelize([1], 1).collect()
            assert sc.metrics.tasks_retried == 3

    def test_abort_cause_is_executor_loss(self):
        plan = FaultPlan(41, [FaultSpec("lose", rate=1.0, max_attempt=10**6)])
        with SparkleContext(2, 1, fault_plan=plan) as sc:
            sc._scheduler.max_task_retries = 1
            with pytest.raises(JobAborted) as err:
                sc.parallelize([1], 1).collect()
            assert isinstance(err.value.__cause__, ExecutorLost)

    def test_transient_exhaustion_aborts(self):
        plan = FaultPlan(43, [FaultSpec("storage", rate=1.0, max_attempt=10**6)])
        with SparkleContext(1, 1, fault_plan=plan) as sc:
            sc._scheduler.max_task_retries = 1
            sc.shared_storage.put("k", 1)
            storage = sc.shared_storage
            with pytest.raises(JobAborted) as err:
                sc.parallelize([0], 1).map(lambda _x: storage.get("k")).collect()
            assert isinstance(err.value.__cause__, TransientIOError)


# ----------------------------------------------------------------------
# plan parsing / validation
# ----------------------------------------------------------------------
class TestFaultPlanSurface:
    def test_from_string_full_grammar(self):
        plan = FaultPlan.from_string(
            "seed=7,kill=0.1,lose=0.05,storage=0.2,overflow=0.02"
        )
        assert plan.seed == 7
        assert plan.specs["storage"].rate == 0.2
        assert plan.specs["kill"].rate == 0.1
        assert plan.serialize_tasks is True
        assert "seed=7" in plan.describe()

    def test_from_string_bare_seed_arms_default_mix(self):
        plan = FaultPlan.from_string("seed=42")
        assert plan.seed == 42
        assert plan.specs  # default rates armed
        assert "kill" in plan.specs and "lose" in plan.specs

    def test_from_string_parallel_flag(self):
        plan = FaultPlan.from_string("seed=1,kill=0.5,parallel=1")
        assert plan.serialize_tasks is False

    def test_from_string_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.from_string("kill=0.5")  # seed missing
        with pytest.raises(ValueError):
            FaultPlan.from_string("seed=1,warp=0.5")
        with pytest.raises(ValueError):
            FaultPlan.from_string("seed=1,kill")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("kill", rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec("nope", rate=0.5)
        with pytest.raises(ValueError):
            FaultSpec("kill", rate=0.5, max_attempt=0)
        with pytest.raises(ValueError):
            FaultPlan(0, [FaultSpec("kill", 0.1), FaultSpec("kill", 0.2)])

    def test_decisions_are_reproducible(self):
        p1 = FaultPlan(99, [FaultSpec("kill", rate=0.5)])
        p2 = FaultPlan(99, [FaultSpec("kill", rate=0.5)])
        sites = [(s, p, 1) for s in range(10) for p in range(10)]
        assert [p1.task_fault(*x) for x in sites] == [p2.task_fault(*x) for x in sites]
        fired = p1.fired()["kill"]
        assert 0 < fired < len(sites)  # rate actually thins the sites

    def test_fraction_is_pure(self):
        a = deterministic_fraction(7, "backoff", (1, 2, 3))
        b = deterministic_fraction(7, "backoff", (1, 2, 3))
        assert a == b and 0.0 <= a < 1.0
        assert deterministic_fraction(8, "backoff", (1, 2, 3)) != a
