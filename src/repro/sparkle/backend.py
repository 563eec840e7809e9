"""The worker plane: kernel math in real processes, supervised.

Tasks run in the driver process, on the task slots of the
:class:`~repro.sparkle.executors.ExecutorPool` — the calling thread and
helper slots on the pool's threads (a helper that never started is
cancelled, so nested launches cannot deadlock): orchestration thunks
close over driver state (shuffle maps, locks, fault plans) and cannot
leave the process.  A context built with ``backend="processes"`` *has*
a :class:`ProcessBackend` (``sc.offload``) besides — one worker process
per simulated executor — and the task body sends its *kernel math*, the
A/B‖C/D tile updates that dominate wall-clock, there (DESIGN.md §12).

The unit that crosses the boundary is the task's call list itself
(:mod:`repro.kernels.base`): one ``pickle`` of the list ships every
distinct array once (pickle's memo is the operand pool — the pivot tile
20 D calls share travels once) and :data:`ALIAS_X` arrives as the
worker's own sentinel.  The worker hands the list to :func:`~repro.
kernels.base.update_tiles` — the function the thread path uses, so the
kernel's D stacks and B‖C panels happen on this side too — and pickles
the updated tiles back with the batch's kernel stats and its
``kernel.run`` count (``worker_kernel_runs``).  That is the *only*
difference from a context without the plane: tasks, shuffle
staging, the RDD cache, CB storage and broadcast values stay on driver
threads and are held by reference, so every scheduler and byte count is
the same with and without it.

Determinism: kernel offload is synchronous per task and numerically
identical (the worker runs the same NumPy ops on the same bits), so a
``processes`` solve is bit-identical to a ``threads`` one; task
*scheduling* still honours the chaos plane's ``serialize_tasks``
contract because the offload happens inside the task body.

Worker lifecycle: the pools are created, and their first-generation
workers started by one awaited no-op each, in the driver's constructor
thread (forking later, mid-solve, from a many-threaded driver is the
classic fork-safety trap) and torn down with
``shutdown(wait=True)`` so no worker outlives the context.

Supervision (DESIGN.md §13): every offloaded batch runs under the
:mod:`~repro.sparkle.supervisor` layer — workers heartbeat into an
anonymous shared board (it has no ``/dev/shm`` name, so nothing can
leak) watched by a driver watchdog, batches carry optional
wall-clock deadlines, and a worker death (``BrokenProcessPool``) runs
the crash protocol: respawn the pool under deterministic bounded
backoff, count the failure against the culprit call's poison budget —
or, for a death in the batch's stacked phase, against no call, sending
the batch's calls down the unstacked path from then on (the stack-token
rule) — and surface a *retryable*
:class:`~.errors.WorkerCrashed` / :class:`~.errors.TaskDeadlineExceeded`
so the DAGScheduler's attempt machinery re-runs the task (the dead
worker took only its own copies of the tiles with it, so there is
nothing to reclaim).  A call that
kills ``max_task_failures`` fresh workers is quarantined with
:class:`~.errors.PoisonTaskError`.  Respawned pools use the ``spawn``
start method: after a crash the safest worker is one that shares no
heritage with the wreckage.
"""

from __future__ import annotations

import atexit
import hashlib
import itertools
import pickle
import signal
import threading
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Any

import numpy as np

from ..kernels import native
from ..kernels.base import ALIAS_X, update_tiles
from .chaos import CURRENT_TASK
from .errors import PoisonTaskError, TaskDeadlineExceeded, WorkerCrashed
from .metrics import EngineMetrics
from .supervisor import SupervisionConfig, WorkerSupervisor, _attach_worker

__all__ = ["ALIAS_X", "BACKENDS", "ProcessBackend"]

BACKENDS = ("threads", "processes")


# ----------------------------------------------------------------------
# worker-side machinery (must be module-level for fork AND spawn start
# methods)
# ----------------------------------------------------------------------
_WORKER_KERNEL_CACHE: dict[bytes, Any] = {}
#: ``kernel.run`` calls this worker has made; a reply carries the
#: difference across its batch (``worker_kernel_runs``)
_WORKER_RUNS = [0]


def _worker_ready() -> None:  # pragma: no cover - worker side
    """The no-op the constructor awaits once per slot: submitting it is
    what starts a first-generation worker, in the constructor's thread."""


def _worker_kernel(kernel_blob: bytes):  # pragma: no cover - worker side
    """The worker's unpickled kernel for ``kernel_blob``, its ``run``
    counted.  The counter is an instance attribute, so the ``self.run``
    calls a kernel's ``run_stacks`` makes are counted too."""
    kernel = _WORKER_KERNEL_CACHE.get(kernel_blob)
    if kernel is None:
        kernel = pickle.loads(kernel_blob)
        run = kernel.run

        def counted(*args, **kwargs):
            _WORKER_RUNS[0] += 1
            return run(*args, **kwargs)

        kernel.run = counted
        if len(_WORKER_KERNEL_CACHE) > 32:
            _WORKER_KERNEL_CACHE.clear()
        _WORKER_KERNEL_CACHE[kernel_blob] = kernel
    return kernel


def _kernel_batch_task(
    kernel_blob: bytes,
    calls: list,
    tokens: list,
    stack_token: int | None,
    injects: list,
    want_stats: bool,
):  # pragma: no cover - exercised in worker processes
    """Worker body of the offload protocol: one task's tile updates, one
    round-trip (a single call is a batch of one).

    ``calls`` is the driver's call list as it is; ``tokens`` and
    ``injects`` run parallel to it.  The calls go through
    :func:`~repro.kernels.base.update_tiles` — the thread path's own
    function, so the kernel's ``run_stacks`` groups them exactly as it
    groups a thread task's list (pickle's memo keeps a shared pivot one
    object, so panels key alike).  Returns ``(runs, tiles, stats,
    fold)``: the ``kernel.run`` calls made, the updated tiles in call
    order, one ``KernelStats`` for the batch (``None`` unless
    ``want_stats``) and the ``fold`` entry of the worker's kernel
    ``describe()`` (``None`` without one).

    Error attribution, the stack-token rule (DESIGN.md §13): shipped
    faults fire first, in call order, each under its own call's token
    (every one is fatal, so firing it before the math changes only
    timing); the stacked phase runs under ``stack_token``; every call
    it leaves runs under its own token.  A token stays on the worker's
    heartbeat row until the driver resets the slot, so a death leaves
    behind either the stack token or the exact culprit call's.  A
    ``stack_token`` of ``None`` runs every call on its own.
    """
    from ..kernels.stats import KernelStats
    from .supervisor import worker_begin_task, worker_end_task, worker_self_fault

    kernel = _worker_kernel(kernel_blob)
    describe = getattr(kernel, "describe", dict)()
    fold = describe.get("fold") if isinstance(describe, dict) else None
    stats = KernelStats() if want_stats else None
    before = _WORKER_RUNS[0]
    try:
        for token, inject in zip(tokens, injects):
            if inject is not None:
                worker_begin_task(token)
                worker_self_fault(inject)
        tiles = update_tiles(
            kernel,
            calls,
            stats,
            stacks=stack_token is not None,
            mark=lambda idx: worker_begin_task(
                stack_token if idx is None else tokens[idx]
            ),
        )
        return _WORKER_RUNS[0] - before, tiles, stats, fold
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


class ProcessBackend:
    """The worker plane a ``backend="processes"`` context has: one
    single-worker process pool per slot (see ``__init__``) that runs
    kernel batches under supervision."""

    #: absolute ``time.monotonic()`` ceiling for offload waits, armed by
    #: ``DAGScheduler.set_job_deadline`` (``None`` = no request deadline)
    job_deadline: float | None = None
    #: the ``fold`` the workers' kernel reported with its last batch:
    #: what ran the offloaded tiles (``None`` before any batch)
    worker_fold: str | None = None

    def __init__(
        self,
        *,
        num_workers: int,
        metrics=None,
        supervision: SupervisionConfig | None = None,
        fault_plan=None,
    ) -> None:
        import multiprocessing

        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        self._metrics = metrics or EngineMetrics()
        methods = multiprocessing.get_all_start_methods()
        # First generation: fork where the platform has it (cheap, and
        # this is the constructor's thread — see below).  Respawned
        # pools always use spawn when the platform has it: a crash may
        # have left the driver's fork-inherited state suspect, and a
        # from-scratch interpreter shares nothing with the wreck.
        start_method = "fork" if "fork" in methods else "spawn"
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
        # Load (or build) the compiled fold before forking: forked
        # workers inherit the loaded library instead of each looking
        # it up again, and never race one another to build it.
        native.status()
        # One single-worker pool per slot, started eagerly: fork from
        # the constructor's (driver) thread, before executor threads and
        # their locks exist.  A targeted submit queue per worker is what
        # lets placement address a *specific* worker — a shared
        # ProcessPoolExecutor queue cannot.  Slot i is
        # also heartbeat-board row i (fixed-slot claim in worker init).
        self._pools: list | None = [
            self._make_pool(start_method, slot) for slot in range(num_workers)
        ]
        self._generations = [0] * num_workers
        # A ProcessPoolExecutor starts its process at the first submit.
        # Make that submit here and wait for it, so the fork happens in
        # this thread rather than in an executor thread mid-solve.
        try:
            for ready in [pool.submit(_worker_ready) for pool in self._pools]:
                ready.result()
        except BaseException:
            self._emergency_cleanup()
            raise
        # Reap on unclean-but-orderly exits (sys.exit, uncaught error):
        # kill registered workers.  A SIGKILLed
        # driver never reaches atexit — that case is covered by the
        # worker-side janitor thread (supervisor._start_janitor).
        atexit.register(self._emergency_cleanup)
        self.supervisor.start_watchdog()

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def _make_pool(self, method: str, slot: int):
        """One worker-slot pool generation, joined to the supervision
        layer on its fixed heartbeat-board row."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        ctx = multiprocessing.get_context(method)
        return ProcessPoolExecutor(
            max_workers=1,
            mp_context=ctx,
            initializer=_attach_worker,
            initargs=self.supervisor.worker_initargs(slot),
        )

    # -- placement -----------------------------------------------------
    def _default_slot(self) -> int:
        """Worker slot for one batch (DESIGN.md §12 placement rule): the
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
        """Offload one task's tile updates in a single worker
        round-trip.

        ``calls`` is a list of ``(case, x, u, v, w, gi0, gj0, gk0,
        n_global)`` tuples and crosses the process boundary as it is —
        one pickle, each distinct array once — beside one heartbeat
        token and one optional shipped fault per call, and one stack
        token for the batch; returns ``[(fresh_tile, stats), ...]`` in
        call order, the batch's one ``KernelStats`` on the first entry.
        The worker runs :func:`~repro.kernels.base.update_tiles`, the
        thread path's own function, stacks included: the inputs are
        never written, and a worker that dies mid-batch takes only its
        own copies with it, so retry purity needs no reclaim step.  Each
        result is copied out of the reply (an unpickled array is a view
        of a ``bytes`` object), so callers get writeable arrays that own
        their memory.

        Supervised: the wait honours ``task_deadline`` and the job
        deadline (:meth:`_await_member`), a seeded real process fault
        may be shipped along with a call, and a worker death runs the
        crash protocol (:meth:`_handle_member_death`).  A batch whose
        stacked phase once killed a worker runs unstacked from then on
        (no stack token), so a repeat death is attributed to the exact
        call and quarantine names the exact tile.
        """
        from concurrent.futures.process import BrokenProcessPool

        if not calls:
            return []
        sup = self.supervisor
        kernel_id = hashlib.blake2b(kernel_blob, digest_size=4).hexdigest()
        sigs = [(kernel_id, call[0], *call[5:8]) for call in calls]
        for sig in sigs:
            if sup.is_quarantined(sig):
                case, coordinate = sig[1], sig[2:]
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
        tokens = [sup.next_token() for _ in calls]
        stack_token = (
            sup.next_token() if len(calls) > 1 and not sup.any_unstacked(sigs) else None
        )
        plan = self.fault_plan
        injects = [
            plan.worker_fault(call[0], *call[5:8]) if plan is not None else None
            for call in calls
        ]
        try:
            fut = pool.submit(
                _kernel_batch_task,
                kernel_blob,
                calls,
                tokens,
                stack_token,
                injects,
                want_stats,
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
                slot, generation, calls, sigs, tokens, stack_token, injects, deadline
            ) from exc
        runs, tiles, stats, fold = reply
        if fold is not None:
            self.worker_fold = fold
        self._metrics.kernel_offloads += len(calls)
        self._metrics.worker_kernel_runs += runs
        return [(np.array(x), stats if i == 0 else None) for i, x in enumerate(tiles)]

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
                    # The worker never claimed its row: no way to target
                    # it — reap them all rather than hang.
                    sup.kill_workers()
            except RuntimeError as exc:
                if kill_elapsed is not None:
                    raise _MemberDeadline(kill_elapsed, budget, exc) from exc
                raise

    def _handle_member_death(
        self,
        slot: int,
        generation: int,
        calls: list,
        sigs: list,
        tokens: list,
        stack_token: int | None,
        injects: list,
        deadline: "_MemberDeadline | None",
    ) -> BaseException:
        """The crash protocol: respawn, count; returns the typed
        error for the caller to raise — :class:`PoisonTaskError` once
        the culprit call has spent its ``max_task_failures`` budget,
        else the retryable :class:`TaskDeadlineExceeded` /
        :class:`WorkerCrashed` that the scheduler's attempt machinery
        backs off and re-runs.

        Culprit attribution, in priority order: the call carrying a
        driver-shipped fault; the stacked phase, when the dead worker's
        board row (read *before* the respawn resets it) shows the
        batch's stack token; the call whose token it shows; the batch's
        first call.  A culprit call is charged one failure against its
        poison budget, so quarantine names the exact tile even though
        the whole batch died with the worker.  A stacked-phase death
        charges no call — no one tile is to blame — and marks the
        batch's calls to run unstacked from then on, so a repeat death
        is charged to its exact call.
        """
        sup = self.supervisor
        culprit = next((i for i, inj in enumerate(injects) if inj is not None), None)
        if culprit is None:
            tok = sup.token_for_slot(slot)
            if stack_token is None or tok != stack_token:
                culprit = tokens.index(tok) if tok in tokens else 0
        self._metrics.worker_crashes += 1
        self._respawn_slot(slot, generation)
        reason = "deadline" if deadline is not None else "crash"
        limit = self.supervision.max_task_failures
        if culprit is None:
            sup.unstack(sigs)
            where = "the stacked phase"
            charged = "no call charged; its calls now run unstacked"
        else:
            reason = injects[culprit] or reason
            sig = sigs[culprit]
            kernel_id, case, coordinate = sig[0], sig[1], sig[2:]
            failures = sup.record_failure(sig)
            if failures >= limit:
                sup.quarantine(sig)
                return PoisonTaskError(
                    f"kernel call case={case} tile@{coordinate} killed "
                    f"{failures} fresh workers ({reason}); quarantined as poison",
                    coordinate=coordinate,
                    case=case,
                    kernel_id=kernel_id,
                    failures=failures,
                )
            where = f"case={case} tile@{coordinate}"
            charged = f"failure {failures}/{limit}"
        if deadline is not None:
            return TaskDeadlineExceeded(
                f"kernel on {where} (batch of {len(calls)}) SIGKILLed after "
                f"{deadline.elapsed:.3f}s (budget {deadline.budget:.3f}s; {charged})",
                deadline=deadline.budget,
                elapsed=deadline.elapsed,
            )
        return WorkerCrashed(
            f"worker died mid-kernel ({reason}) on {where} (batch of "
            f"{len(calls)}); slot {slot} respawned ({charged})",
            reason=reason,
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
        drop the pools.  The healthy-exit path unregisters this before it
        can run.
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
