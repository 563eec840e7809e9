"""Scheduler hardening units: backoff, speculation, blacklisting,
fetch-failure recomputation, retry exhaustion.

These pin down the recovery machinery the chaos harness
(tests/test_chaos.py) exercises end-to-end.
"""

import threading
from types import SimpleNamespace

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
# backoff
# ----------------------------------------------------------------------
class TestBackoff:
    def _scheduler(self, seed=0, **kw):
        plan = FaultPlan(seed) if seed is not None else None
        sc = SparkleContext(1, 1, fault_plan=plan)
        vars(sc._scheduler).update(kw)
        return sc, sc._scheduler

    def test_sequence_is_deterministic(self):
        sc1, sched1 = self._scheduler(seed=42)
        sc2, sched2 = self._scheduler(seed=42)
        try:
            seq1 = [sched1.backoff_delay(3, 1, a) for a in range(2, 6)]
            seq2 = [sched2.backoff_delay(3, 1, a) for a in range(2, 6)]
            assert seq1 == seq2
            # and stable under repeated evaluation of the same site
            assert sched1.backoff_delay(3, 1, 2) == seq1[0]
        finally:
            sc1.stop()
            sc2.stop()

    def test_different_seeds_jitter_differently(self):
        sc1, sched1 = self._scheduler(seed=1)
        sc2, sched2 = self._scheduler(seed=2)
        try:
            seq1 = [sched1.backoff_delay(0, 0, a) for a in range(2, 8)]
            seq2 = [sched2.backoff_delay(0, 0, a) for a in range(2, 8)]
            assert seq1 != seq2
        finally:
            sc1.stop()
            sc2.stop()

    def test_exponential_growth_and_cap(self):
        sc, sched = self._scheduler(
            seed=9, backoff_base=0.001, backoff_cap=0.004, backoff_jitter=0.0
        )
        try:
            assert sched.backoff_delay(0, 0, 2) == pytest.approx(0.001)
            assert sched.backoff_delay(0, 0, 3) == pytest.approx(0.002)
            assert sched.backoff_delay(0, 0, 4) == pytest.approx(0.004)
            assert sched.backoff_delay(0, 0, 5) == pytest.approx(0.004)  # capped
        finally:
            sc.stop()

    def test_jitter_bounds(self):
        sc, sched = self._scheduler(
            seed=13, backoff_base=0.002, backoff_cap=1.0, backoff_jitter=0.5
        )
        try:
            for attempt in range(2, 7):
                raw = 0.002 * 2 ** (attempt - 2)
                got = sched.backoff_delay(5, 7, attempt)
                assert raw <= got <= raw * 1.5
        finally:
            sc.stop()

    def test_disabled_when_base_zero(self):
        sc, sched = self._scheduler(seed=1, backoff_base=0.0)
        try:
            assert sched.backoff_delay(0, 0, 2) == 0.0
        finally:
            sc.stop()

    def test_fraction_is_pure(self):
        a = deterministic_fraction(7, "backoff", (1, 2, 3))
        b = deterministic_fraction(7, "backoff", (1, 2, 3))
        assert a == b and 0.0 <= a < 1.0
        assert deterministic_fraction(8, "backoff", (1, 2, 3)) != a

    def test_backoff_metered_on_retry(self):
        plan = FaultPlan(1, [FaultSpec("kill", rate=1.0)])
        with SparkleContext(1, 1, fault_plan=plan) as sc:
            sc._scheduler.backoff_base = 0.0005
            sc.parallelize([1, 2], 2).collect()
            assert sc.metrics.backoff_waits == 2  # one retry per partition
            assert sc.metrics.backoff_seconds_total > 0
            tasks = sc.metrics.jobs[-1].stages[-1].tasks
            assert all(t.attempts == 2 for t in tasks)
            assert all(t.backoff_seconds > 0 for t in tasks)


# ----------------------------------------------------------------------
# speculative execution
# ----------------------------------------------------------------------
class TestSpeculation:
    def test_speculative_copy_wins_over_straggler(self):
        plan = FaultPlan(21, [FaultSpec("slow", rate=1.0, delay=0.2)])
        with SparkleContext(2, 2, fault_plan=plan) as sc:
            got = sc.parallelize(range(4), 2).map(lambda x: x * x).collect()
            assert got == [0, 1, 4, 9]
            m = sc.metrics
            assert m.speculative_launched == 2
            # the stalled originals never finish: the copies win every race
            assert m.speculative_wins == 2
            assert m.stragglers_cancelled == 2
            assert m.tasks_retried == 0  # speculation is not a retry
            wins = [t.speculative_win for t in m.jobs[-1].stages[-1].tasks]
            assert wins == [True, True]

    def test_straggler_wins_when_speculation_disabled(self):
        plan = FaultPlan(21, [FaultSpec("slow", rate=1.0, delay=0.01)])
        with SparkleContext(2, 2, fault_plan=plan) as sc:
            sc._scheduler.speculation = False
            got = sc.parallelize(range(4), 2).map(lambda x: x + 1).collect()
            assert got == [1, 2, 3, 4]
            assert sc.metrics.speculative_launched == 0
            assert sc.metrics.speculative_wins == 0

    def test_straggler_that_outlives_its_stall_has_its_io_fault_counted(self):
        """The interleaving behind a flaky chaos count, forced: the copy
        is held until the straggler has woken and hit the plan's storage
        fault.  Both fail under the same attempt, the plan fires twice,
        and ``transient_io_failures`` counts both."""
        plan = FaultPlan(
            3, [FaultSpec("slow", 1.0, delay=0.001), FaultSpec("storage", 1.0)]
        )
        copy_thread = threading.current_thread()
        straggled = threading.Event()

        def body(tc):
            straggler = threading.current_thread() is not copy_thread
            if not straggler:
                assert straggled.wait(10.0), "the straggler never woke"
            try:
                if plan.io_fault("storage", "block"):
                    raise TransientIOError("injected storage read fault")
            finally:
                if straggler:
                    straggled.set()
            return 0

        with SparkleContext(1, 1, fault_plan=plan) as sc:
            record = sc._scheduler._attempt_with_retries(
                SimpleNamespace(id=0), 0, body
            )
            m = sc.metrics
            assert record.attempts == 2 and m.tasks_retried == 1
            assert m.speculative_launched == plan.fired()["slow"] == 1
            assert m.transient_io_failures == plan.fired()["storage"] == 2

    def test_speculation_in_summary(self):
        plan = FaultPlan(21, [FaultSpec("slow", rate=1.0, delay=0.05)])
        with SparkleContext(1, 2, fault_plan=plan) as sc:
            sc.parallelize([1], 1).collect()
            s = sc.metrics.summary()
            assert s["speculative_launched"] == 1
            assert s["speculative_wins"] == 1


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
# blacklisting
# ----------------------------------------------------------------------
class TestBlacklisting:
    def test_faulty_executor_gets_blacklisted(self):
        # Every first attempt dies; executors accumulate faults and cross
        # the threshold, but at least one always stays healthy.
        plan = FaultPlan(29, [FaultSpec("kill", rate=1.0)])
        with SparkleContext(3, 1, fault_plan=plan) as sc:
            sc._scheduler.blacklist_threshold = 2
            got = sc.parallelize(range(12), 12).map(lambda x: -x).collect()
            assert got == [-x for x in range(12)]
            assert len(sc.metrics.blacklisted_executors) == 2
            assert len(sc._executors.healthy_executors) == 1
            assert sc.metrics.summary()["executors_blacklisted"] == 2

    def test_threshold_zero_disables_blacklisting(self):
        plan = FaultPlan(29, [FaultSpec("kill", rate=1.0)])
        with SparkleContext(3, 1, fault_plan=plan) as sc:
            sc._scheduler.blacklist_threshold = 0
            sc.parallelize(range(12), 12).collect()
            assert sc.metrics.blacklisted_executors == []
            assert sc._executors.healthy_executors == (0, 1, 2)

    def test_lost_executor_attributed_and_blacklisted(self):
        plan = FaultPlan(31, [FaultSpec("lose", rate=1.0)])
        with SparkleContext(2, 1, fault_plan=plan) as sc:
            sc._scheduler.blacklist_threshold = 1
            sc.parallelize(range(4), 4).collect()
            assert len(sc.metrics.blacklisted_executors) == 1
            assert sc.metrics.executor_loss_events >= 1


# ----------------------------------------------------------------------
# retry exhaustion
# ----------------------------------------------------------------------
class TestRetryExhaustion:
    def test_job_aborted_after_budget(self):
        # Faults past every retry: JobAborted carries the last cause.
        plan = FaultPlan(37, [FaultSpec("kill", rate=1.0, max_attempt=10**6)])
        with SparkleContext(1, 1, fault_plan=plan) as sc:
            sc._scheduler.max_task_retries = 2
            sc._scheduler.backoff_base = 0.0001
            with pytest.raises(JobAborted, match="after 3 attempts"):
                sc.parallelize([1], 1).collect()
            assert sc.metrics.tasks_retried == 3

    def test_abort_cause_is_executor_loss(self):
        plan = FaultPlan(41, [FaultSpec("lose", rate=1.0, max_attempt=10**6)])
        with SparkleContext(2, 1, fault_plan=plan) as sc:
            sc._scheduler.max_task_retries = 1
            sc._scheduler.blacklist_threshold = 0
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
            "seed=7,kill=0.1,lose=0.05,slow=0.2:0.01,storage=0.05,overflow=0.02"
        )
        assert plan.seed == 7
        assert plan.specs["slow"].rate == 0.2
        assert plan.specs["slow"].delay == 0.01
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
            FaultSpec("slow", rate=0.5, delay=-1)
        with pytest.raises(ValueError):
            FaultPlan(0, [FaultSpec("kill", 0.1), FaultSpec("kill", 0.2)])

    def test_decisions_are_reproducible(self):
        p1 = FaultPlan(99, [FaultSpec("kill", rate=0.5)])
        p2 = FaultPlan(99, [FaultSpec("kill", rate=0.5)])
        sites = [(s, p, 1) for s in range(10) for p in range(10)]
        assert [p1.task_fault(*x) for x in sites] == [p2.task_fault(*x) for x in sites]
        fired = p1.fired()["kill"]
        assert 0 < fired < len(sites)  # rate actually thins the sites
