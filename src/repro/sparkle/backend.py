"""Pluggable execution backends: deterministic threads or real processes.

The engine historically ran every task on one GIL-bound
``ThreadPoolExecutor``.  :class:`ExecutionBackend` makes that choice
pluggable (DESIGN.md §12):

* :class:`ThreadBackend` (default) — the original thread pool, verbatim.
  Orchestration thunks close over driver state (shuffle maps, locks,
  fault plans), so they can only run in-process; this backend keeps
  every determinism contract (chaos serialization, trace byte
  accounting) exactly as before.
* :class:`ProcessBackend` — orchestration still runs on threads (the
  thunks are not picklable, by design), but the *kernel math* — the
  A/B‖C/D tile updates that dominate wall-clock — is offloaded to a
  worker process per simulated executor.  There is one offload
  protocol (DESIGN.md §14) and one transport (§12): a task's tile
  updates travel as one batch to one worker — a single call is a batch
  of one — and the batch envelope is the only thing that crosses the
  process boundary.  Every array a batch touches, the tiles being
  updated and their operands alike, is interned once in the batch's
  :class:`OperandPool` and pickled out with the envelopes; the worker
  updates a private copy of each tile and pickles the updated tiles
  back with their kernel stats.  That is the *only* difference from the
  thread backend: tasks, shuffle staging, the RDD cache, CB storage and
  broadcast values stay on driver threads and are held by reference, so
  every scheduler and byte count is the same on both.

Determinism: kernel offload is synchronous per task and numerically
identical (the worker runs the same NumPy ops on the same bits), so a
process-backend solve is bit-identical to a thread-backend one; task
*scheduling* still honours the chaos plane's ``serialize_tasks``
contract because the offload happens inside the task body.  Caveats are
documented in DESIGN.md §12 (worker wall-clock attribution).

Worker lifecycle: the pool is created eagerly in the driver's
constructor thread (forking later, mid-solve, from a many-threaded
driver is the classic fork-safety trap) and torn down with
``shutdown(wait=True)`` so no worker outlives the context.  Workers
disable ``resource_tracker`` registration for shared memory — the
driver owns the heartbeat board, the one segment there is, and a worker
exiting must never unlink it.

Supervision (DESIGN.md §13): every offloaded batch runs under the
:mod:`~repro.sparkle.supervisor` layer — workers heartbeat into a
shared-memory board watched by a driver watchdog, batches carry optional
wall-clock deadlines, and a worker death (``BrokenProcessPool``) runs
the crash protocol: respawn the pool under deterministic bounded
backoff, count the failure against the culprit call's poison budget
(the dead worker took only its own copies of the tiles with it, so
there is nothing to reclaim), and surface a *retryable*
:class:`~.errors.WorkerCrashed` / :class:`~.errors.TaskDeadlineExceeded`
so the DAGScheduler's attempt machinery re-runs the task.  A call that
kills ``max_task_failures`` fresh workers is quarantined with
:class:`~.errors.PoisonTaskError`.  Respawned pools use the ``spawn``
start method: after a crash the safest worker is one that shares no
heritage with the wreckage.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import os
import pickle
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Any, Callable

import numpy as np

from .chaos import CURRENT_TASK
from .errors import PoisonTaskError, TaskDeadlineExceeded, WorkerCrashed
from .metrics import EngineMetrics
from .supervisor import (
    SupervisionConfig,
    WorkerSupervisor,
    _attach_worker,
    shm_supported,
)

__all__ = [
    "ALIAS_X",
    "BACKENDS",
    "ExecutionBackend",
    "ThreadBackend",
    "ProcessBackend",
    "OperandPool",
    "make_backend",
]

#: Kernel-operand sentinel: "this operand aliases the tile being
#: updated" (cases A/B/C).  The kernel contract encodes the case in the
#: aliasing pattern, so the alias must be re-established against
#: whichever materialization of X the backend updates.
ALIAS_X = object()
#: what :data:`ALIAS_X` is in a batch envelope (pool indices are >= 0)
_ALIAS_X_DESC = -1

BACKENDS = ("threads", "processes")


class ExecutionBackend:
    """Contract the executor pool and the GEP drivers program against."""

    name: str = "abstract"
    #: whether :meth:`run_kernel_batch` is available (drivers fall back
    #: to the copy-then-update-in-place thread path when it is not)
    supports_kernel_offload: bool = False
    #: absolute ``time.monotonic()`` ceiling for offload waits, armed by
    #: ``DAGScheduler.set_job_deadline`` (``None`` = no request deadline)
    job_deadline: float | None = None
    #: supervision layer (process backend only; ``None`` means no real
    #: process boundary, so there is nothing to supervise)
    supervisor: Any = None
    supervision: Any = None

    def run_tasks(
        self, thunks: list[Callable[[], Any]], sequential: bool = False
    ) -> list[Any]:
        raise NotImplementedError

    def run_kernel_batch(
        self, kernel_blob: bytes, calls: list, want_stats: bool = False
    ) -> list:
        """Offload one task's tile updates in a single worker round-trip.

        ``calls`` is a list of ``(case, x, u, v, w, gi0, gj0, gk0,
        n_global)`` tuples; returns ``[(fresh_tile, stats), ...]`` in
        call order.
        """
        raise NotImplementedError(f"{self.name} backend has no kernel offload")

    def shutdown(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class ThreadBackend(ExecutionBackend):
    """The historical deterministic thread pool."""

    name = "threads"
    supports_kernel_offload = False

    def __init__(self, total_slots: int, *, metrics=None) -> None:
        if total_slots < 1:
            raise ValueError("total_slots must be >= 1")
        self.total_slots = total_slots
        self._metrics = metrics or EngineMetrics()
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.total_slots, thread_name_prefix="executor"
                )
            return self._pool

    def run_tasks(
        self, thunks: list[Callable[[], Any]], sequential: bool = False
    ) -> list[Any]:
        """Run a stage's tasks; returns results in task order.

        Exceptions propagate only after every submitted task settles
        (finished, failed, or cancelled before starting), so a failing
        task cannot leave stragglers mutating shared shuffle state.  On
        the first failure, tasks that have not started yet are cancelled
        rather than run to completion.

        ``sequential`` forces in-order, one-at-a-time execution in the
        calling thread — the chaos determinism contract (see
        :mod:`repro.sparkle.chaos`).
        """
        if not thunks:
            return []
        if sequential or self.total_slots == 1 or len(thunks) == 1:
            return [t() for t in thunks]
        pool = self._ensure_pool()
        futures = [pool.submit(t) for t in thunks]
        first_error: BaseException | None = None
        # as_completed drains every future (cancelled ones included), so
        # by the time we raise, nothing is still running.
        for fut in as_completed(futures):
            if fut.cancelled():
                continue
            exc = fut.exception()
            if exc is not None and first_error is None:
                first_error = exc
                for other in futures:
                    other.cancel()
        if first_error is not None:
            raise first_error
        return [fut.result() for fut in futures]

    def shutdown(self) -> None:
        """Tear the pool down without waiting on queued stragglers.

        ``cancel_futures=True`` cancels every task that has not started
        yet, so a hung or slow straggler deep in the queue cannot block
        engine teardown forever; tasks already running are still joined
        (they may be mutating shared shuffle state).
        """
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True, cancel_futures=True)
                self._pool = None


# ----------------------------------------------------------------------
# process backend: the batch envelope's array pool
# ----------------------------------------------------------------------
class OperandPool:
    """Identity-deduplicated array pool of one batch envelope.

    A kernel offload ships one task's tile updates in one round-trip;
    the arrays they touch overlap heavily (every D update in an
    iteration reads the same pivot row/column tiles).  Instead of
    inlining each array per call, the batch ships one flat list and each
    envelope names its tile and operands by pool index — the pivot
    crosses the IPC boundary once per batch, not once per tile (the
    per-batch broadcast dedup of DESIGN.md §14).

    Dedup is by the identity of the array object; arrays are made
    contiguous on first add.
    """

    __slots__ = ("_arrays", "_ids")

    def __init__(self) -> None:
        self._arrays: list[np.ndarray] = []
        self._ids: dict[int, int] = {}

    def add(self, arr: np.ndarray) -> int:
        """Intern ``arr`` and return its pool index."""
        idx = self._ids.get(id(arr))
        if idx is None:
            idx = len(self._arrays)
            self._arrays.append(np.ascontiguousarray(arr))
            self._ids[id(arr)] = idx
        return idx

    def payload(self) -> list[np.ndarray]:
        """The flat array list to ship with the batch envelope."""
        return self._arrays


# ----------------------------------------------------------------------
# process backend: worker-side machinery (must be module-level for fork
# AND spawn start methods)
# ----------------------------------------------------------------------
_WORKER_KERNEL_CACHE: dict[bytes, Any] = {}


def _worker_init(supervision_args=None) -> None:  # pragma: no cover - worker side
    """Keep the worker's resource tracker away from the driver-owned
    heartbeat board, then join the supervision layer.

    Attaching a ``SharedMemory`` registers it with the *worker's*
    resource tracker, which would unlink the still-live board (with a
    leak warning) when the worker exits.  The driver's supervisor is its
    sole owner — tiles never travel through shared memory, so the board
    is the only segment a worker ever attaches — and the tracker patch
    must land before that attach.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(name, rtype):
        if rtype == "shared_memory":
            return
        original(name, rtype)

    resource_tracker.register = register
    if supervision_args is not None:
        _attach_worker(*supervision_args)


def _resolve_operand(desc, x, pool):
    """Materialize one of u/v/w from its transport descriptor: absent,
    the call's own tile (A/B/C aliasing), or an entry of the batch's
    identity-deduped array pool."""
    if desc is None:
        return None
    if desc == _ALIAS_X_DESC:
        return x
    return pool[desc]


def _kernel_batch_task(
    kernel_blob: bytes,
    pool: list,
    envs: list,
    want_stats: bool,
):  # pragma: no cover - exercised in worker processes
    """Worker body of the offload protocol: one task's tile updates, one
    round-trip (a single call is a batch of one).

    ``pool`` is the batch's identity-deduped array list (the pivot
    fan-out crosses the IPC boundary once per batch, not once per tile);
    each envelope is ``(token, inject, case, xi, udesc, vdesc, wdesc,
    gi0, gj0, gk0, n_global)`` with ``xi`` the pool index of the tile to
    update.  Returns ``[(updated_tile, stats), ...]`` in envelope order.

    The kernel updates a private copy of ``pool[xi]``.  The copy is
    required, not defensive: the pool dedups by identity and pickle
    memoises, so an array that is one call's tile and another call's
    operand arrives here as *one* object, and the other call must read
    the values the driver sent.

    Error attribution: the worker publishes each envelope's ``token`` on
    its heartbeat-board row *before* running the call, and the row keeps
    that token until the driver resets the slot — so a crash mid-batch
    leaves the culprit call's token behind for the driver to map back to
    the exact tile (DESIGN.md §14).
    """
    from ..kernels.stats import KernelStats
    from .supervisor import worker_begin_task, worker_end_task, worker_self_fault

    kernel = _WORKER_KERNEL_CACHE.get(kernel_blob)
    if kernel is None:
        kernel = pickle.loads(kernel_blob)
        if len(_WORKER_KERNEL_CACHE) > 32:
            _WORKER_KERNEL_CACHE.clear()
        _WORKER_KERNEL_CACHE[kernel_blob] = kernel
    out = []
    try:
        for token, inject, case, xi, udesc, vdesc, wdesc, gi0, gj0, gk0, n in envs:
            worker_begin_task(token)
            if inject is not None:
                worker_self_fault(inject)
            x = pool[xi].copy()
            u, v, w = (_resolve_operand(d, x, pool) for d in (udesc, vdesc, wdesc))
            stats = KernelStats() if want_stats else None
            kernel.run(case, x, u, v, w, gi0, gj0, gk0, n, stats=stats)
            out.append((x, stats))
            worker_end_task()
        return out
    finally:
        worker_end_task()


class _MemberDeadline(RuntimeError):
    """Internal: a batch's worker was SIGKILLed for deadline overrun.

    Wraps the resulting pool breakage so the elapsed time survives to
    the crash handler, which must tell an enforced deadline from a
    spontaneous death.
    """

    def __init__(self, elapsed: float, budget: float, cause: BaseException) -> None:
        super().__init__(f"batch SIGKILLed after {elapsed:.3f}s")
        self.elapsed = elapsed
        self.budget = budget
        self.cause = cause


class ProcessBackend(ThreadBackend):
    """Thread orchestration plus per-worker process pools for the kernel
    math (one single-worker pool per slot — see ``__init__``)."""

    name = "processes"

    def __init__(
        self,
        total_slots: int,
        *,
        num_workers: int,
        metrics=None,
        start_method: str | None = None,
        supervision: SupervisionConfig | None = None,
        fault_plan=None,
    ) -> None:
        super().__init__(total_slots, metrics=metrics)
        if not shm_supported():  # pragma: no cover - platform gate
            raise RuntimeError(
                "the process backend's heartbeat board needs "
                "multiprocessing.shared_memory"
            )
        import multiprocessing

        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else "spawn"
        self.start_method = start_method
        # Respawned pools always use spawn when the platform has it: a
        # crash may have left the driver's fork-inherited state suspect,
        # and a from-scratch interpreter shares nothing with the wreck.
        self._respawn_method = "spawn" if "spawn" in methods else start_method
        self.supervision = supervision or SupervisionConfig()
        self.fault_plan = fault_plan
        self.supervisor = WorkerSupervisor(
            self.supervision,
            slots=num_workers,
            metrics=self._metrics,
            seed=fault_plan.seed if fault_plan is not None else 0,
        )
        self._pool_lock = threading.Lock()
        self._respawns = 0
        self._rr = itertools.count()
        # One single-worker pool per slot, created eagerly: fork from
        # the constructor's (driver) thread, before executor threads and
        # their locks exist.  A targeted submit queue per worker is what
        # lets placement address a *specific* worker — a shared
        # ProcessPoolExecutor queue cannot.  Slot i is
        # also heartbeat-board row i (fixed-slot claim in worker init).
        self._pools: list | None = [
            self._make_pool(start_method, slot) for slot in range(num_workers)
        ]
        self._generations = [0] * num_workers
        # Reap on unclean-but-orderly exits (sys.exit, uncaught error):
        # kill registered workers, unlink the board.  A SIGKILLed
        # driver never reaches atexit — that case is covered by the
        # worker-side janitor thread (supervisor._start_janitor).
        atexit.register(self._emergency_cleanup)
        self.supervisor.start_watchdog()

    def _make_pool(self, method: str, slot: int):
        """One worker-slot pool generation, joined to the supervision
        layer on its fixed heartbeat-board row."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        ctx = multiprocessing.get_context(method)
        return ProcessPoolExecutor(
            max_workers=1,
            mp_context=ctx,
            initializer=_worker_init,
            initargs=(self.supervisor.worker_initargs(slot),),
        )

    @property
    def supports_kernel_offload(self) -> bool:  # type: ignore[override]
        return self._pools is not None

    # -- placement -----------------------------------------------------
    def _default_slot(self) -> int:
        """Worker slot for one batch (DESIGN.md §14 placement rule): the
        running task's partition modulo the worker count (the same
        modulo the executor pool uses for task placement), else
        round-robin for calls outside any task.  A tile's partition is a
        pure function of the partitioner, so its updates keep landing on
        the same worker without any placement memory."""
        task = CURRENT_TASK.get()
        if task is not None:
            return task.partition % self.num_workers
        return next(self._rr) % self.num_workers

    def _slot_pool(self, slot: int):
        """Current ``(pool, generation)`` for one worker slot."""
        with self._pool_lock:
            if self._pools is None:
                raise RuntimeError("process backend is shut down")
            return self._pools[slot], self._generations[slot]

    # -- offload -------------------------------------------------------
    @staticmethod
    def _batch_operand_desc(arr, x, pool: OperandPool):
        """Transport descriptor for one of u/v/w: absent, the call's own
        tile, or its index in the batch's pool — interned by identity,
        so an operand shared by many calls (the pivot fan-out) ships
        once per batch."""
        if arr is None:
            return None
        if arr is ALIAS_X or arr is x:
            return _ALIAS_X_DESC
        return pool.add(arr)

    def run_kernel(
        self, kernel_blob, case, x, u, v, w, gi0, gj0, gk0, n_global,
        want_stats: bool = False,
    ):
        """One tile update — a batch of one; ``(fresh_tile, stats)``."""
        call = (case, x, u, v, w, gi0, gj0, gk0, n_global)
        return self.run_kernel_batch(kernel_blob, [call], want_stats)[0]

    def run_kernel_batch(
        self, kernel_blob: bytes, calls: list, want_stats: bool = False
    ) -> list:
        """Pickle the batch out, update every tile in one worker
        round-trip, take the updated tiles from the reply.

        One envelope list plus one identity-deduped :class:`OperandPool`
        holding every array the batch touches — each call's tile beside
        its operands — crosses the process boundary; the worker updates
        a private copy of each tile and returns ``[(tile, stats), ...]``.
        The pickle plus that copy *is* the defensive copy the thread
        path takes (``tile.copy()``): the inputs are never written, and
        a worker that dies mid-batch takes only its own copies with it,
        so retry purity needs no reclaim step.  Each result is copied
        out of the reply (an unpickled array is a view of a ``bytes``
        object), so callers get writeable arrays that own their memory.

        Supervised: the wait honours ``task_deadline`` and the job
        deadline (:meth:`_await_member`), a seeded real process fault
        may be shipped along with a call, and a worker death runs the
        crash protocol (:meth:`_handle_member_death`) with the culprit
        *call* attributed — quarantine names the exact tile even though
        the whole batch died with the worker.
        """
        from concurrent.futures.process import BrokenProcessPool

        if not calls:
            return []
        sup = self.supervisor
        kernel_id = hashlib.blake2b(kernel_blob, digest_size=4).hexdigest()
        for case, _x, _u, _v, _w, gi0, gj0, gk0, _n in calls:
            sig = (kernel_id, case, gi0, gj0, gk0)
            if sup.is_quarantined(sig):
                coordinate = (gi0, gj0, gk0)
                raise PoisonTaskError(
                    f"kernel call case={case} tile@{coordinate} is quarantined "
                    f"(killed {sup.failures(sig)} workers)",
                    coordinate=coordinate,
                    case=case,
                    kernel_id=kernel_id,
                    failures=sup.failures(sig),
                )
        slot = self._default_slot()
        pool, generation = self._slot_pool(slot)
        opool = OperandPool()
        envs = []
        for case, x, u, v, w, gi0, gj0, gk0, n_global in calls:
            inject = (
                self.fault_plan.worker_fault(case, gi0, gj0, gk0)
                if self.fault_plan is not None
                else None
            )
            envs.append(
                (
                    sup.next_token(),
                    inject,
                    case,
                    opool.add(x),
                    self._batch_operand_desc(u, x, opool),
                    self._batch_operand_desc(v, x, opool),
                    self._batch_operand_desc(w, x, opool),
                    gi0,
                    gj0,
                    gk0,
                    n_global,
                )
            )
        try:
            fut = pool.submit(
                _kernel_batch_task, kernel_blob, opool.payload(), envs, want_stats
            )
            self._metrics.dispatch_round_trips += 1
            reply = self._await_member(fut, slot, len(calls))
        except TaskDeadlineExceeded:
            # Still-queued batch cancelled outright: retryable, no
            # worker was harmed.
            raise
        except RuntimeError as exc:
            deadline = exc if isinstance(exc, _MemberDeadline) else None
            if deadline is not None:
                exc = deadline.cause
            # BrokenProcessPool, or a plain RuntimeError from
            # submitting against a pool a concurrent crash handler
            # already swapped out ("cannot schedule new futures
            # after shutdown") — only the latter with an *unchanged*
            # generation is a real programming error.
            if not isinstance(exc, BrokenProcessPool):
                with self._pool_lock:
                    stale = (
                        self._pools is not None
                        and self._generations[slot] != generation
                    )
                if not stale:
                    raise
            raise self._handle_member_death(
                slot, generation, envs, kernel_id, deadline
            ) from exc
        self._metrics.kernel_offloads += len(calls)
        return [(np.array(x), stats) for x, stats in reply]

    # -- supervision ---------------------------------------------------
    def _await_member(self, fut, slot: int, ncalls: int):
        """Wait for one batch under its wall-clock budget.

        The per-call ``task_deadline`` multiplies by the batch's call
        count — a batch of 20 legitimately runs 20 kernels — but the
        job deadline (a request's absolute ceiling) caps the product:
        a stuck batch must not outlive its request N-fold.  On overrun:
        cancel a still-queued batch outright (retryable, typed), else
        SIGKILL the slot's worker and let the resulting pool breakage
        carry the elapsed time to the crash handler via
        :class:`_MemberDeadline`.  No budget at all: a plain blocking
        wait (a hang is still covered by the watchdog, whose SIGKILL
        breaks the pool and wakes us with ``BrokenProcessPool``).
        """
        start = time.monotonic()
        budget = None
        if self.supervision.task_deadline is not None:
            budget = self.supervision.task_deadline * ncalls
        if self.job_deadline is not None:
            ceiling = max(self.job_deadline - start, 0.001)
            budget = ceiling if budget is None else min(budget, ceiling)
        if budget is None:
            return fut.result()
        sup = self.supervisor
        kill_elapsed = None
        while True:
            try:
                return fut.result(timeout=0.05)
            except FuturesTimeoutError:
                elapsed = time.monotonic() - start
                if elapsed <= budget or kill_elapsed is not None:
                    continue
                self._metrics.deadlines_exceeded += 1
                if fut.cancel():
                    # Never started — queue latency, not the task's
                    # fault; retryable without touching any worker.
                    raise TaskDeadlineExceeded(
                        f"batch of {ncalls} still queued after "
                        f"{elapsed:.3f}s (budget {budget:.3f}s)",
                        deadline=budget,
                        elapsed=elapsed,
                    ) from None
                kill_elapsed = elapsed
                pid = sup.pid_for_slot(slot)
                if pid is not None:
                    sup._signal(pid, signal.SIGKILL)
                else:
                    # No shm board at all: no way to target the one
                    # worker — reap them all rather than hang.
                    sup.kill_workers()
            except RuntimeError as exc:
                if kill_elapsed is not None:
                    raise _MemberDeadline(kill_elapsed, budget, exc) from exc
                raise

    def _handle_member_death(
        self,
        slot: int,
        generation: int,
        envs: list,
        kernel_id: str,
        deadline: "_MemberDeadline | None",
    ) -> BaseException:
        """The crash protocol: respawn, count; returns the typed
        error for the caller to raise — :class:`PoisonTaskError` once
        the culprit call has spent its ``max_task_failures`` budget,
        else the retryable :class:`TaskDeadlineExceeded` /
        :class:`WorkerCrashed` that the scheduler's attempt machinery
        backs off and re-runs.

        Culprit attribution, in priority order: the call carrying a
        driver-shipped fault; the call whose token the dead worker last
        published on its board row (read *before* the respawn resets the
        row); the batch's first call.  The failure is counted against
        that one call's poison budget, so quarantine names the exact
        tile even though the whole batch died with the worker.
        """
        sup = self.supervisor
        culprit = next((env for env in envs if env[1] is not None), None)
        if culprit is None:
            tok = sup.token_for_slot(slot)
            culprit = next((env for env in envs if env[0] == tok), envs[0])
        self._metrics.worker_crashes += 1
        self._respawn_slot(slot, generation)
        _token, inject, case, *_descs, gi0, gj0, gk0, _n = culprit
        task_sig = (kernel_id, case, gi0, gj0, gk0)
        coordinate = (gi0, gj0, gk0)
        failures = sup.record_failure(task_sig)
        reason = inject or ("deadline" if deadline is not None else "crash")
        if failures >= self.supervision.max_task_failures:
            sup.quarantine(task_sig)
            return PoisonTaskError(
                f"kernel call case={case} tile@{coordinate} killed "
                f"{failures} fresh workers ({reason}); quarantined as poison",
                coordinate=coordinate,
                case=case,
                kernel_id=kernel_id,
                failures=failures,
            )
        if deadline is not None:
            return TaskDeadlineExceeded(
                f"kernel call case={case} tile@{coordinate} (batch of "
                f"{len(envs)}) SIGKILLed after {deadline.elapsed:.3f}s "
                f"(budget {deadline.budget:.3f}s)",
                deadline=deadline.budget,
                elapsed=deadline.elapsed,
            )
        return WorkerCrashed(
            f"worker died mid-kernel ({reason}) on case={case} "
            f"tile@{coordinate} (batch of {len(envs)}); slot {slot} "
            f"respawned (failure {failures}/"
            f"{self.supervision.max_task_failures})",
            reason=reason,
            slot=slot,
        )

    def _respawn_slot(self, slot: int, observed_generation: int) -> None:
        """Reap one slot's broken pool and start a fresh generation.

        Single-flight per slot: concurrent crashed calls race here, the
        first one (by ``observed_generation``) does the work, the rest
        return and retry against the new pool.  Sleeps the deterministic
        bounded backoff *inside* the lock so stampeding threads queue
        behind one respawn instead of interleaving kill/create cycles.
        Other slots' workers keep running — a crash costs one worker's
        warm state, not the whole plane's.
        """
        sup = self.supervisor
        with self._pool_lock:
            if self._pools is None or self._generations[slot] != observed_generation:
                return
            self._respawns += 1
            delay = sup.respawn_delay(self._respawns)
            if delay > 0:
                time.sleep(delay)
            # SIGKILL the straggler first: a SIGSTOPped (hung) worker
            # never drains its queue, and executor shutdown alone would
            # leave it frozen forever.
            sup.kill_slot(slot)
            old = self._pools[slot]
            try:
                old.shutdown(wait=False, cancel_futures=True)
            except Exception:  # pragma: no cover - broken-pool teardown
                pass
            sup.reset_slot(slot)
            self._pools[slot] = self._make_pool(self._respawn_method, slot)
            self._generations[slot] += 1
            self._metrics.workers_respawned += 1

    # -- lifecycle -----------------------------------------------------
    def _emergency_cleanup(self) -> None:  # pragma: no cover - atexit path
        """Last-resort reaper for drivers exiting without ``shutdown()``.

        Idempotent and exception-proof: kill every registered worker,
        drop the pool, unlink the board.  The healthy-exit path unregisters this before it can run.
        """
        try:
            sup = self.supervisor
            with self._pool_lock:
                pools, self._pools = self._pools, None
            if pools is not None:
                sup.kill_workers()
                for pool in pools:
                    try:
                        pool.shutdown(wait=False, cancel_futures=True)
                    except Exception:
                        pass
            sup.destroy()
        except Exception:
            pass

    def shutdown(self) -> None:
        self.supervisor.stop_watchdog()
        with self._pool_lock:
            pools, self._pools = self._pools, None
        if pools is not None:
            for pool in pools:
                pool.shutdown(wait=True, cancel_futures=True)
        self.supervisor.destroy()
        atexit.unregister(self._emergency_cleanup)
        super().shutdown()


def make_backend(
    name: str,
    *,
    total_slots: int,
    num_workers: int,
    metrics=None,
    supervision: SupervisionConfig | None = None,
    fault_plan=None,
) -> ExecutionBackend:
    """Build a backend by CLI name (``threads`` | ``processes``).

    ``supervision``/``fault_plan`` only bite under
    ``processes`` — the thread backend has no process boundary, so there
    is nothing to heartbeat, kill or respawn (its tasks run
    under the scheduler's own simulated-fault machinery instead).
    """
    if name == "threads":
        backend = ThreadBackend(total_slots, metrics=metrics)
        backend.supervision = supervision
        return backend
    if name == "processes":
        return ProcessBackend(
            total_slots,
            num_workers=num_workers,
            metrics=metrics,
            supervision=supervision,
            fault_plan=fault_plan,
        )
    raise ValueError(f"unknown backend {name!r} (expected one of {BACKENDS})")
