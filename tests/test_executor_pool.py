"""ExecutorPool lifecycle: prompt shutdown and last-executor protection."""

import time
import warnings

import pytest

from repro.sparkle import EngineMetrics, LastExecutorProtectedWarning
from repro.sparkle.executors import ExecutorPool


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
