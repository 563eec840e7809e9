"""Executor pool: the simulated cluster's compute slots.

One :class:`ExecutorPool` models ``num_executors`` executors with
``cores_per_executor`` task slots each (the Spark ``executor-cores``
knob).  Placement lives here, and so does execution: a stage's tasks
run on task slots, and the thread that calls
:meth:`ExecutorPool.run_tasks` is one of them — the others are *helper
slots* it submits to the pool's ``total_slots - 1`` threads, each
claiming tasks until none is left.  A helper that has not started
when the caller runs out of tasks is cancelled, not waited for, so a
``run_tasks`` issued from inside a task never blocks behind a busy pool.
With ``backend="processes"`` the pool also *has* a worker plane
(:attr:`ExecutorPool.offload`, a :class:`~repro.sparkle.backend.
ProcessBackend`: one worker process per simulated executor) that task
bodies send their kernel math to, past the GIL.  Each task is *assigned*
to an executor by partition id, ``partition % num_executors``, fixed for
the life of the pool, so metrics and the cost model can reason about
per-executor load and locality exactly as the paper does (one executor
per compute node, §V-B), and an executor loss drops exactly the map
outputs of the partitions it owns.  The scheduler can request
``sequential`` stage execution, which the chaos determinism contract
uses to keep recovery traces reproducible.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Any, Callable

from .backend import BACKENDS, ProcessBackend
from .metrics import EngineMetrics

__all__ = ["ExecutorPool"]


class ExecutorPool:
    """Fixed pool of task slots spread over simulated executors."""

    def __init__(
        self,
        num_executors: int,
        cores_per_executor: int,
        *,
        metrics=None,
        backend: str = "threads",
        supervision=None,
        fault_plan=None,
    ) -> None:
        if num_executors < 1 or cores_per_executor < 1:
            raise ValueError("executors and cores must be >= 1")
        self.num_executors = num_executors
        self.cores_per_executor = cores_per_executor
        self.total_slots = num_executors * cores_per_executor
        self._metrics = metrics or EngineMetrics()
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r} (expected one of {BACKENDS})")
        #: the worker plane (``None`` on ``"threads"``: no process
        #: boundary, so nothing to offload to or supervise)
        self.offload: ProcessBackend | None = (
            ProcessBackend(
                num_workers=num_executors,
                metrics=self._metrics,
                supervision=supervision,
                fault_plan=fault_plan,
            )
            if backend == "processes"
            else None
        )
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def executor_for(self, partition: int) -> int:
        """Deterministic task placement: round-robin over the executors."""
        return partition % self.num_executors

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        # One thread per helper slot a stage can use: the caller is the
        # other slot.  A thread per slot would spread the tasks' buffers
        # over one more malloc arena, which measured as higher peak RSS
        # (EXPERIMENTS.md "A task costs its work").  At least one, for
        # callers that submit to a one-slot pool directly.
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=max(1, self.total_slots - 1),
                    thread_name_prefix="executor",
                )
            return self._pool

    def run_tasks(
        self, thunks: list[Callable[[], Any]], sequential: bool = False
    ) -> list[Any]:
        """Run a stage's tasks; returns results in task order.

        The calling thread is a task slot.  A stage runs on ``width =
        min(total_slots, len(thunks))`` slots — the caller's own and
        ``width - 1`` *helper slots* submitted to the pool's threads —
        and every slot claims the next unstarted task from one shared
        counter until none is left.  That is one future per helper
        slot, not one per task, at the same concurrency.

        After the first failure no further task starts.  It propagates
        only once every started task has settled, so a failing task
        cannot leave stragglers mutating shared shuffle state.  A helper
        that has not started by the time the caller's slot runs out of
        tasks is cancelled rather than waited for: it would find nothing
        left to claim, and waiting on it could deadlock a ``run_tasks``
        issued from inside a task while every pool thread is busy.

        ``sequential`` (``width = 1``) runs the tasks in order, one at a
        time, in the calling thread — the chaos determinism contract
        (see :mod:`repro.sparkle.chaos`).
        """
        count = len(thunks)
        results: list[Any] = [None] * count
        failures: list[BaseException] = []
        claim = itertools.count().__next__  # atomic under the GIL

        def slot() -> None:
            while not failures:
                index = claim()
                if index >= count:
                    return
                try:
                    results[index] = thunks[index]()
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    failures.append(exc)

        width = 1 if sequential else min(self.total_slots, count)
        helpers = (
            [self._ensure_pool().submit(slot) for _ in range(width - 1)]
            if width > 1
            else []
        )
        slot()
        # A cancelled future counts as done only once a pool thread
        # dequeues it, so only the helpers that started are waited on.
        wait([helper for helper in helpers if not helper.cancel()])
        if failures:
            raise failures[0]
        return results

    def shutdown(self) -> None:
        """Reap the worker plane (processes joined, the heartbeat board
        unlinked), then tear the thread pool down without waiting on
        queued stragglers.

        ``cancel_futures=True`` cancels every task that has not started
        yet, so a hung or slow straggler deep in the queue cannot block
        engine teardown forever; tasks already running are still joined
        (they may be mutating shared shuffle state).
        """
        if self.offload is not None:
            self.offload.shutdown()
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None
