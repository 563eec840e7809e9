"""Executor pool: the simulated cluster's compute slots.

One :class:`ExecutorPool` models ``num_executors`` executors with
``cores_per_executor`` task slots each (the Spark ``executor-cores``
knob).  Placement, health and blacklisting live here; *execution* is
delegated to a pluggable :class:`~repro.sparkle.backend.
ExecutionBackend` — the default deterministic thread pool, or the
multicore process backend (one worker process per simulated executor)
that offloads kernel math past the GIL.  Each task is *assigned* to an
executor deterministically by partition id so metrics and the cost
model can reason about per-executor load and locality exactly as the
paper does (one executor per compute node, §V-B).

Fault tolerance hooks: the scheduler can *blacklist* an executor after
repeated faults — placement then round-robins over the remaining healthy
executors (at least one always stays healthy) — and can request
``sequential`` stage execution, which the chaos determinism contract
uses to keep recovery traces reproducible.
"""

from __future__ import annotations

import threading
import warnings
from typing import Any, Callable

from .backend import ExecutionBackend, make_backend
from .errors import LastExecutorProtectedWarning
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
        backend: str | ExecutionBackend = "threads",
        supervision=None,
        fault_plan=None,
    ) -> None:
        if num_executors < 1 or cores_per_executor < 1:
            raise ValueError("executors and cores must be >= 1")
        self.num_executors = num_executors
        self.cores_per_executor = cores_per_executor
        self.total_slots = num_executors * cores_per_executor
        self._metrics = metrics or EngineMetrics()
        if isinstance(backend, ExecutionBackend):
            self.backend = backend
        else:
            self.backend = make_backend(
                backend,
                total_slots=self.total_slots,
                num_workers=num_executors,
                metrics=self._metrics,
                supervision=supervision,
                fault_plan=fault_plan,
            )
        self._lock = threading.Lock()
        self._blacklisted: set[int] = set()
        # Atomic snapshot read by executor_for without locking.
        self._healthy: tuple[int, ...] = tuple(range(num_executors))

    # ------------------------------------------------------------------
    # placement & health
    # ------------------------------------------------------------------
    def executor_for(self, partition: int) -> int:
        """Deterministic task placement (round-robin over healthy executors)."""
        healthy = self._healthy
        return healthy[partition % len(healthy)]

    @property
    def healthy_executors(self) -> tuple[int, ...]:
        return self._healthy

    def is_blacklisted(self, executor: int) -> bool:
        return executor in self._blacklisted

    def blacklist(self, executor: int) -> bool:
        """Exclude an executor from placement; True if newly blacklisted.

        Refuses to blacklist the last healthy executor — the simulated
        cluster must keep at least one node able to run tasks.  The
        refusal is no longer silent: it emits a typed
        :class:`~repro.sparkle.errors.LastExecutorProtectedWarning` and
        is metered as ``EngineMetrics.last_executor_protected``, because
        a fault threshold crossed on the last survivor is exactly the
        signal an operator needs to see.
        """
        with self._lock:
            if executor in self._blacklisted:
                return False
            if not 0 <= executor < self.num_executors:
                raise ValueError(f"no such executor {executor}")
            if len(self._healthy) <= 1:
                self._metrics.last_executor_protected += 1
                warnings.warn(
                    f"refusing to blacklist executor {executor}: it is the "
                    f"last healthy executor of {self.num_executors}",
                    LastExecutorProtectedWarning,
                    stacklevel=2,
                )
                return False
            self._blacklisted.add(executor)
            self._healthy = tuple(
                e for e in range(self.num_executors) if e not in self._blacklisted
            )
        return True

    # ------------------------------------------------------------------
    # execution (delegated to the backend)
    # ------------------------------------------------------------------
    def run_tasks(
        self, thunks: list[Callable[[], Any]], sequential: bool = False
    ) -> list[Any]:
        """Run a stage's tasks; returns results in task order.

        See :meth:`~repro.sparkle.backend.ThreadBackend.run_tasks` for
        the settle/cancel and ``sequential`` (chaos determinism)
        semantics, which every backend honours.
        """
        return self.backend.run_tasks(thunks, sequential=sequential)

    def _ensure_pool(self):
        """The backend's thread pool (test/diagnostic hook)."""
        return self.backend._ensure_pool()

    def shutdown(self) -> None:
        """Tear the backend down (threads joined, worker processes
        reaped, the heartbeat board unlinked)."""
        self.backend.shutdown()
