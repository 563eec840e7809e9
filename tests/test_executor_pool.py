"""ExecutorPool: the task-launch contract, prompt shutdown and
last-executor protection."""

import threading
import time
import warnings

import pytest

from repro.sparkle import EngineMetrics, LastExecutorProtectedWarning
from repro.sparkle.executors import ExecutorPool


def _in_thread(fn, timeout=10.0):
    """Run ``fn`` on a thread of its own; its result, or a failure if it
    has not returned within ``timeout`` (a deadlock must fail the test,
    not hang the suite)."""
    out = {}

    def run():
        try:
            out["result"] = fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "run_tasks deadlocked"
    if "error" in out:
        raise out["error"]
    return out["result"]


def _occupy(pool):
    """Busy every thread of ``pool``'s executor until the returned event
    is set: a helper slot submitted meanwhile queues and never starts."""
    executor = pool._ensure_pool()
    release, running = threading.Event(), threading.Semaphore(0)

    def blocker():
        running.release()
        release.wait(60.0)

    for _ in range(executor._max_workers):
        executor.submit(blocker)
    for _ in range(executor._max_workers):
        assert running.acquire(timeout=5.0)
    return release


def _spy_submits(pool):
    """The futures of every helper slot ``run_tasks`` submits."""
    executor = pool._ensure_pool()
    submitted, submit = [], executor.submit

    def spy(*args, **kwargs):
        submitted.append(submit(*args, **kwargs))
        return submitted[-1]

    executor.submit = spy
    return submitted


class TestLaunchContract:
    """``run_tasks``: the calling thread is a task slot, helpers claim
    tasks from one counter, and a failure stops new starts."""

    def test_results_come_back_in_task_order(self):
        pool = ExecutorPool(2, 2)

        def task(i):
            def run():
                time.sleep(0.002 * (8 - i))  # later tasks finish first
                return i * i
            return run

        try:
            assert pool.run_tasks([task(i) for i in range(8)]) == [i * i for i in range(8)]
            assert pool.run_tasks([]) == []
        finally:
            pool.shutdown()

    def test_calling_thread_runs_a_task(self):
        pool = ExecutorPool(2, 1)
        ran_on = []

        def task():
            ran_on.append(threading.current_thread())
            time.sleep(0.05)

        try:
            pool.run_tasks([task] * 4)
        finally:
            pool.shutdown()
        assert len(ran_on) == 4
        assert threading.current_thread() in ran_on
        assert len(set(ran_on)) == 2  # the caller and one helper slot

    def test_failure_starts_nothing_and_raises_after_started_tasks_settle(self):
        pool = ExecutorPool(2, 1)
        slow_started, slow_done = threading.Event(), threading.Event()
        later = []

        def failer():
            slow_started.wait(5.0)  # a concurrent task is running
            raise RuntimeError("boom")

        def slow():
            slow_started.set()
            time.sleep(0.2)
            slow_done.set()

        def recorder(i):
            return lambda: later.append(i)

        try:
            with pytest.raises(RuntimeError, match="boom"):
                pool.run_tasks([failer, slow] + [recorder(i) for i in range(6)])
            assert slow_done.is_set()  # settled before the raise
        finally:
            pool.shutdown()
        assert later == []  # no task started after the failure

    def test_sequential_runs_in_order_on_the_caller(self):
        pool = ExecutorPool(2, 2)
        submitted = _spy_submits(pool)
        seen = []

        def task(i):
            def run():
                seen.append((i, threading.current_thread()))
                return i
            return run

        try:
            assert pool.run_tasks([task(i) for i in range(6)], sequential=True) == list(range(6))
        finally:
            pool.shutdown()
        assert seen == [(i, threading.current_thread()) for i in range(6)]
        assert submitted == []  # width 1: no helper slot

    def test_helper_that_never_started_is_cancelled(self):
        pool = ExecutorPool(2, 1)
        release = _occupy(pool)
        submitted = _spy_submits(pool)
        ran_on = []
        try:
            out = _in_thread(
                lambda: pool.run_tasks(
                    [lambda i=i: ran_on.append(threading.current_thread()) or i for i in range(3)]
                )
            )
            assert out == [0, 1, 2]
            assert len(submitted) == 1 and submitted[0].cancelled()
            assert len(set(ran_on)) == 1  # every task ran on the calling thread
        finally:
            release.set()
            pool.shutdown()

    def test_nested_run_tasks_on_a_busy_pool_completes(self):
        pool = ExecutorPool(2, 1)
        release = _occupy(pool)
        # set before the blockers go: an outer task that only starts then
        # (one that queued behind them) returns at once instead of
        # nesting — so a pool that deadlocks fails this test, and does
        # not hang the suite on its threads
        abandoned = threading.Event()

        def outer(i):
            def run():
                if abandoned.is_set():
                    return None
                return sum(pool.run_tasks([lambda j=j: i * 10 + j for j in range(3)]))
            return run

        try:
            assert _in_thread(lambda: pool.run_tasks([outer(1), outer(2)])) == [33, 63]
        finally:
            abandoned.set()
            release.set()
            pool.shutdown()


class TestShutdown:
    def test_shutdown_cancels_queued_stragglers(self):
        # One slot: the first task occupies it while the rest queue.  A
        # shutdown must cancel the queue instead of draining 10 s of
        # sleeps (the pre-fix behavior of shutdown(wait=True)).
        pool = ExecutorPool(1, 1)
        executor = pool._ensure_pool()
        executor.submit(time.sleep, 0.2)
        queued = [executor.submit(time.sleep, 10.0) for _ in range(5)]
        start = time.perf_counter()
        pool.shutdown()
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0  # joined the running task, not the queue
        assert all(f.cancelled() for f in queued)

    def test_shutdown_is_idempotent(self):
        pool = ExecutorPool(2, 1)
        pool.run_tasks([lambda: 1, lambda: 2])
        pool.shutdown()
        pool.shutdown()


class TestLastExecutorProtection:
    def test_refusal_warns_and_meters(self):
        metrics = EngineMetrics()
        pool = ExecutorPool(2, 1, metrics=metrics)
        assert pool.blacklist(0) is True
        with pytest.warns(LastExecutorProtectedWarning, match="executor 1"):
            assert pool.blacklist(1) is False
        assert metrics.last_executor_protected == 1
        assert pool.healthy_executors == (1,)
        # refusal shows up on the recovery report surface
        assert metrics.summary("recovery")["last_executor_protected"] == 1

    def test_single_executor_pool_is_always_protected(self):
        metrics = EngineMetrics()
        pool = ExecutorPool(1, 2, metrics=metrics)
        with pytest.warns(LastExecutorProtectedWarning):
            assert pool.blacklist(0) is False
        assert metrics.last_executor_protected == 1

    def test_already_blacklisted_is_silent(self):
        pool = ExecutorPool(3, 1, metrics=EngineMetrics())
        assert pool.blacklist(0) is True
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pool.blacklist(0) is False  # no warning: just a repeat

    def test_no_metrics_still_warns(self):
        pool = ExecutorPool(1, 1)
        with pytest.warns(LastExecutorProtectedWarning):
            assert pool.blacklist(0) is False
