"""A simulated OpenMP runtime for the recursive kernels.

The paper offloads its recursive r-way R-DP kernels to C/OpenMP inside
each Spark executor and tunes ``OMP_NUM_THREADS``.  Offline we cannot
ship a C extension, so :class:`OmpRuntime` reproduces the *execution
structure*: ``parallel_for`` runs a batch of independent tasks either
serially or on a thread pool (NumPy releases the GIL for array ops, so
threads provide genuine overlap for large tiles), and the runtime keeps
the work/span accounting the cost model needs to model thread-count
scaling and oversubscription.

The runtime is re-entrant: nested ``parallel_for`` calls from recursive
kernels run their tasks inline on the calling thread (matching OpenMP's
default non-nested behaviour) rather than deadlocking the pool.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

from .stats import KernelStats

__all__ = ["OmpRuntime", "SerialRuntime"]


class OmpRuntime:
    """Shared-memory parallel-for runtime with OMP_NUM_THREADS semantics.

    Parameters
    ----------
    num_threads:
        The simulated ``OMP_NUM_THREADS``.  ``1`` executes serially with
        zero threading overhead.
    stats:
        Optional :class:`KernelStats` sink recording stage widths.
    """

    def __init__(self, num_threads: int = 1, stats: KernelStats | None = None) -> None:
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        self.num_threads = num_threads
        self.stats = stats
        self._pool: ThreadPoolExecutor | None = None
        self._in_parallel = threading.local()

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.num_threads, thread_name_prefix="omp"
            )
        return self._pool

    def __getstate__(self) -> dict:
        # the pool and the thread-local are per process: a runtime sent
        # to a worker (kernel offload) starts with neither
        return {"num_threads": self.num_threads, "stats": self.stats}

    def __setstate__(self, state: dict) -> None:
        OmpRuntime.__init__(self, state["num_threads"], state["stats"])

    def _nested(self) -> bool:
        return getattr(self._in_parallel, "active", False)

    # ------------------------------------------------------------------
    def parallel_for(self, tasks: Sequence[Callable[[], None]]) -> None:
        """Execute independent thunks, waiting for all (an OpenMP barrier).

        Tasks must not share mutable state except through disjoint array
        regions — exactly the contract of the paper's ``par_for`` loops.
        """
        tasks = list(tasks)
        if self.stats is not None:
            self.stats.record_parallel_for(len(tasks))
        if not tasks:
            return
        if self.num_threads == 1 or len(tasks) == 1 or self._nested():
            for task in tasks:
                task()
            return
        pool = self._ensure_pool()
        self._in_parallel.active = True
        try:
            futures = [pool.submit(self._run_task, t) for t in tasks]
            # Surface the first failure, but always drain the barrier.
            errors = []
            for fut in futures:
                try:
                    fut.result()
                except Exception as exc:  # noqa: BLE001 - re-raised below
                    errors.append(exc)
            if errors:
                raise errors[0]
        finally:
            self._in_parallel.active = False

    def _run_task(self, task: Callable[[], None]) -> None:
        # Mark pool threads as inside a parallel region so nested
        # parallel_for calls from recursive kernels serialize inline.
        self._in_parallel.active = True
        task()

    # ------------------------------------------------------------------
    def map(self, fn: Callable, items: Iterable) -> None:
        """Convenience: ``parallel_for`` over ``fn(item)`` thunks."""
        self.parallel_for([(lambda it=item: fn(it)) for item in items])

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "OmpRuntime":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OmpRuntime(num_threads={self.num_threads})"


class SerialRuntime(OmpRuntime):
    """Always-serial runtime (``OMP_NUM_THREADS=1``) with no pool."""

    def __init__(self, stats: KernelStats | None = None) -> None:
        super().__init__(1, stats)
