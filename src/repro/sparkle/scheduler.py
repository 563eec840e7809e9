"""DAG scheduler: jobs → stages → tasks (paper §II).

An action submits the final RDD here.  The scheduler walks the lineage
top-down from that RDD, cutting it at every
:class:`~repro.sparkle.rdd.ShuffleDependency` into *stages* (maximal
narrow-dependency pipelines), executes the missing parent shuffle-map
stages first, then the result stage.  A parent stage whose shuffle
outputs are already materialized is a leaf of the walk (Spark's
``getMissingParentStages``): it is skipped — stage reuse, which makes
the iterative GEP drivers' per-iteration actions incremental instead of
quadratic — and its ancestors are neither visited nor needed.

A shuffle lives as long as its readers.  Over the stages the walk
touches, a job counts the readers of every parent shuffle and of every
persisted RDD; when the last of them completes and the data was declared
dead (:meth:`RDD.seal <repro.sparkle.rdd.RDD.seal>`: no new reader will
be derived), the staged map outputs are released and the cached
partitions evicted.  Unsealed data is kept across jobs exactly as
before.  Safety is lineage, not the count: a task that needs a released
output gets :class:`~.errors.ShuffleFetchFailed` and takes the
recomputation path below, which recurses through released ancestors.

Tasks (one per partition) run on the executor pool.  The retry loop is
hardened against the chaos plane (:mod:`repro.sparkle.chaos`):

* retryable faults (:class:`~.errors.TaskKilled`,
  :class:`~.errors.ExecutorLost`, :class:`~.errors.TransientIOError`)
  recompute the task from lineage at once, as Spark does — every
  injected fault is a pure hash of its site, so a wait would buy
  nothing;
* a :class:`~.errors.ShuffleFetchFailed` (map outputs dropped by an
  executor loss) first recomputes exactly the missing parent map
  partitions, then retries the fetching task — Spark's map-stage
  resubmission.

That is the one recovery model (lineage recomputation, the paper's
§II): placement never changes, so an executor loss drops exactly the
outputs of the map partitions it owns.  Every recovery event is
recorded on :class:`~repro.sparkle.metrics.EngineMetrics` so reports
can price the overhead.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from numpy import ndarray

from ..kernels import native
from ..util import sizeof_block
from .chaos import CURRENT_TASK
from .errors import (
    BlockNotFoundError,
    ExecutorLost,
    JobAborted,
    PoisonTaskError,
    RequestDeadlineExceeded,
    ShuffleFetchFailed,
    TaskDeadlineExceeded,
    TaskError,
    TaskKilled,
    TransientIOError,
    WorkerCrashed,
)
from .metrics import StageRecord, TaskRecord
from .rdd import ROLE_AGGREGATOR, NarrowDependency, RDD, ShuffleDependency

__all__ = ["DAGScheduler", "TaskContext", "Stage"]

#: Failures the retry loop recovers from (vs user errors → TaskError).
#: BlockNotFoundError is typed precisely so it lands here: a missing
#: storage block is a recomputation trigger, not a programmer error.
#: WorkerCrashed/TaskDeadlineExceeded arrive from the supervised process
#: backend *after* it already respawned the pool — the retry runs on
#: fresh workers.  PoisonTaskError is deliberately absent: a quarantined
#: task would kill every worker it is retried on.
#: RequestDeadlineExceeded is also deliberately absent: a request-plane
#: deadline is a *cancellation*, and retrying a cancelled job would keep
#: burning engine time past the point anyone wants the answer.
RETRYABLE = (
    TaskKilled,
    ExecutorLost,
    TransientIOError,
    BlockNotFoundError,
    WorkerCrashed,
    TaskDeadlineExceeded,
)


class TaskContext:
    """Per-task accounting handle threaded through ``RDD.compute``."""

    def __init__(self, stage_id: int, partition: int, attempt: int) -> None:
        self.stage_id = stage_id
        self.partition = partition
        self.attempt = attempt
        self.shuffle_bytes_read = 0
        self.shuffle_bytes_remote = 0
        self.records_out = 0


@dataclass
class Stage:
    """A pipeline of narrow transformations ending at ``rdd``.

    ``shuffle_dep`` set ⇒ shuffle-map stage materializing that dependency;
    unset ⇒ the job's result stage.
    """

    id: int
    rdd: RDD
    shuffle_dep: ShuffleDependency | None

    @property
    def num_tasks(self) -> int:
        return self.rdd.num_partitions()

    @property
    def kind(self) -> str:
        return "shuffle-map" if self.shuffle_dep is not None else "result"


class DAGScheduler:
    """Builds and runs the stage graph for one context.

    The retry policy is the class attribute below — one value in use,
    so it is not a constructor option; a test that needs another sets
    the attribute on its context's scheduler.
    """

    #: retries of a task after its first attempt before the job aborts
    max_task_retries: int = 3

    def __init__(self, ctx) -> None:
        #: the context; ``None`` once it stops (its ``stop()`` cuts the
        #: cycle, so a stopped context dies by reference count)
        self.ctx = ctx
        self._next_stage_id = 0
        # shuffle id -> Stage, created the first time a job's walk
        # reaches the dependency, so a shared parent is one stage (also
        # the lookup for fetch-failure recomputation).
        self._shuffle_stages: dict[int, Stage] = {}
        # Task attempt ids are cumulative per (stage, partition), like
        # Spark's monotonically increasing TaskAttemptId: a partition
        # re-executed later (partial stage re-run, fetch-failure
        # recomputation) continues numbering instead of restarting at 1.
        # Attempt-keyed fault decisions therefore cannot re-fire on
        # recovery work, which is what makes ``max_attempt=1`` plans
        # recoverable by construction (see :mod:`repro.sparkle.chaos`).
        self._attempt_counts: dict[tuple[int, int], int] = {}
        self._attempt_lock = threading.Lock()
        # Reentrant: recomputing a map partition can itself hit a missing
        # grandparent shuffle and recurse into recovery.
        self._recompute_lock = threading.RLock()
        # Request-plane deadline (monotonic clock, None = no deadline):
        # checked at stage and attempt boundaries so a cancelled request
        # stops burning engine time without interrupting a kernel
        # mid-update (which would forfeit bit-identity guarantees).
        self._job_deadline: float | None = None

    # ------------------------------------------------------------------
    # request-plane deadline
    # ------------------------------------------------------------------
    def set_job_deadline(self, deadline: float | None) -> None:
        """Arm (or clear) a driver-side deadline for subsequent jobs.

        ``deadline`` is an absolute ``time.monotonic()`` instant.  The
        solver service arms this with each request's remaining budget;
        overruns raise :class:`~.errors.RequestDeadlineExceeded`, which
        is *not* retryable — it propagates straight out of ``run_job``.
        The worker plane, where there is one, gets the same instant as
        the ceiling of its offload waits, so a kernel stuck in a worker
        is SIGKILLed at the deadline instead of outliving the request.
        """
        self._job_deadline = deadline
        if self.ctx.offload is not None:
            self.ctx.offload.job_deadline = deadline

    def _check_deadline(self) -> None:
        deadline = self._job_deadline
        if deadline is not None:
            overrun = time.monotonic() - deadline
            if overrun > 0:
                raise RequestDeadlineExceeded(
                    f"request deadline passed {overrun:.3f}s ago; "
                    "cancelling the solve at a stage/attempt boundary",
                    deadline=deadline,
                    elapsed=overrun,
                )

    # ------------------------------------------------------------------
    # stage graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _pipeline_inputs(
        rdd: RDD,
    ) -> tuple[list[tuple[ShuffleDependency, RDD]], list[RDD]]:
        """What the stage ending at ``rdd`` reads: the shuffle
        dependencies at its pipeline's upstream edge, each with the RDD
        that fetches it, and the persisted RDDs inside the pipeline."""
        shuffles: list[tuple[ShuffleDependency, RDD]] = []
        cached: list[RDD] = []
        seen: set[int] = set()
        stack = [rdd]
        while stack:
            node = stack.pop()
            if node.id in seen:
                continue
            seen.add(node.id)
            if node._cached:
                cached.append(node)
            for dep in node.deps:
                if isinstance(dep, ShuffleDependency):
                    shuffles.append((dep, node))
                elif isinstance(dep, NarrowDependency):
                    stack.append(dep.rdd)
        return shuffles, cached

    def _shuffle_map_stage(self, dep: ShuffleDependency) -> Stage:
        stage = self._shuffle_stages.get(dep.shuffle_id)
        if stage is None:
            stage = Stage(self._new_stage_id(), dep.rdd, dep)
            self._shuffle_stages[dep.shuffle_id] = stage
        return stage

    def _new_stage_id(self) -> int:
        sid = self._next_stage_id
        self._next_stage_id += 1
        return sid

    # ------------------------------------------------------------------
    # job execution
    # ------------------------------------------------------------------
    def run_job(
        self, rdd: RDD, func: Callable[[Iterator], Any], action: str
    ) -> list[Any]:
        """Execute ``func`` over every partition of ``rdd``; ordered results."""
        result_stage = Stage(self._new_stage_id(), rdd, None)
        order: list[tuple[Stage, list, list]] = []
        readers: dict[Any, int] = {}
        self._plan(result_stage, order, readers, set())
        trace = self.ctx.metrics.new_job(action)
        results: list[Any] = []
        for stage, shuffles, cached in order:
            self._check_deadline()
            if stage.shuffle_dep is None:
                results = self._run_result_stage(stage, func, trace)
            else:
                self._run_shuffle_map_stage(stage, trace)
            self._release_read(shuffles, cached, readers)
        return results

    def _plan(
        self,
        stage: Stage,
        order: list[tuple[Stage, list, list]],
        readers: dict[Any, int],
        planned: set[int],
    ) -> None:
        """The top-down walk of one job.

        Appends to ``order`` the stages that must run, parents first,
        each with what its pipeline reads; ``readers`` counts, per
        parent shuffle dependency and per persisted RDD, the stages of
        this job that read it.  A materialized parent stage is a leaf:
        it is counted as read, but its ancestors are not visited — so a
        released ancestor costs a later job nothing.  (A method, not a
        closure: a recursive closure is a reference cycle, and would
        keep the stages — and the lineage behind them — past the job.)
        """
        shuffles, cached = self._pipeline_inputs(stage.rdd)
        for dep, _reader in shuffles:
            readers[dep] = readers.get(dep, 0) + 1
            parent = self._shuffle_map_stage(dep)
            if parent.id not in planned:
                planned.add(parent.id)
                if not self._shuffle_materialized(parent):
                    self._plan(parent, order, readers, planned)
        for node in cached:
            readers[node] = readers.get(node, 0) + 1
        order.append((stage, shuffles, cached))

    def _release_read(
        self,
        shuffles: list[tuple[ShuffleDependency, RDD]],
        cached: list[RDD],
        readers: dict[Any, int],
    ) -> None:
        """A stage completed (driver thread, every task joined): free
        what it was the job's last reader of, if sealed."""
        metrics = self.ctx.metrics
        for dep, reader in shuffles:
            readers[dep] -= 1
            if readers[dep] == 0 and reader.sealed:
                self.ctx._shuffle_manager.release(dep.shuffle_id)
                metrics.shuffles_released += 1
        for node in cached:
            readers[node] -= 1
            if readers[node] == 0 and node.sealed:
                node.unpersist()
                metrics.cached_rdds_retired += 1

    # ------------------------------------------------------------------
    def _run_tasks(self, thunks: list[Callable[[], Any]]) -> list[Any]:
        plan = self.ctx.fault_plan
        sequential = plan is not None and plan.serialize_tasks
        mm = self.ctx.memory_manager
        thunks = [self._admitted(t, mm) for t in thunks]
        return self.ctx._executors.run_tasks(thunks, sequential=sequential)

    @staticmethod
    def _admitted(thunk: Callable[[], Any], mm) -> Callable[[], Any]:
        """Gate a task launch behind the memory governor (backpressure).

        A task slot blocks in :meth:`~repro.sparkle.memory.MemoryManager.
        admit_task` until a working-set quantum fits in the budget — except
        that the *first* task is always admitted, which guarantees forward
        progress (it runs, releases its bytes, and wakes the queue).
        """

        def gated() -> Any:
            grant = mm.admit_task()
            try:
                return thunk()
            finally:
                mm.finish_task(grant)

        return gated

    def _shuffle_materialized(self, stage: Stage) -> bool:
        dep = stage.shuffle_dep
        assert dep is not None
        return self.ctx._shuffle_manager.has_outputs(dep.shuffle_id, stage.num_tasks)

    def _run_shuffle_map_stage(self, stage: Stage, trace) -> None:
        dep = stage.shuffle_dep
        assert dep is not None
        record = StageRecord(stage.id, stage.kind, stage.rdd.id, stage.num_tasks)
        sm = self.ctx._shuffle_manager

        # Partial re-execution: a partially materialized stage means an
        # executor loss dropped some of its outputs — recompute only those.
        pending = [
            p for p in range(stage.num_tasks) if not sm.has_output(dep.shuffle_id, p)
        ]
        if 0 < len(pending) < stage.num_tasks:
            self.ctx.metrics.partitions_recomputed += len(pending)

        def make_task(partition: int) -> Callable[[], TaskRecord]:
            def task() -> TaskRecord:
                return self._attempt_with_retries(
                    stage, partition, lambda tc: self._shuffle_map_task(dep, partition, tc)
                )

            return task

        try:
            record.tasks = self._run_tasks([make_task(p) for p in pending])
        except BaseException:
            # Stage abort: tasks that already staged map output for this
            # shuffle would otherwise leak staged bytes (and hold governor
            # reservations) forever — nobody will ever fetch a partially
            # materialized shuffle.  Drop everything this shuffle staged.
            sm.release(dep.shuffle_id)
            self.ctx.metrics.shuffle_partial_cleanups += 1
            raise
        trace.stages.append(record)

    def _shuffle_map_task(
        self, dep: ShuffleDependency, partition: int, tc: TaskContext
    ) -> int:
        """Compute the parent partition, bucket and size it by reducer,
        write shuffle.

        One C call buckets the records (:func:`repro.kernels.native.
        bucket`): it places each record as :func:`_bucket_records` does
        and sizes it by arithmetic, ``16 + sizeof_block(value)`` a record
        (the key assumed small/fixed), for the plain path and for the
        role combine (:data:`~repro.sparkle.rdd.ROLE_AGGREGATOR`).  What
        it declines — a value it cannot size by arithmetic, a role
        overwritten within a key — what another map-side aggregator
        combines, and every task on a host without the library take
        :func:`_bucket_records`, the Python loop it must equal.
        """
        agg = dep.aggregator
        part = dep.partitioner
        combine = agg is not None and agg.map_side_combine
        records = list(dep.rdd.iterator(partition, tc))
        # a memo that is no dict (the empty default) is no memo: what it
        # holds is what ``partition`` answers
        placed = part.placed if part.placed.__class__ is dict else None
        out = None
        if not combine or agg is ROLE_AGGREGATOR:
            out = native.bucket(
                records, placed, part.partition, part.num_partitions, combine
            )
        if out is None:
            out = _bucket_records(records, part, agg if combine else None)
        per_reducer, sizes = out
        tc.records_out += len(records)
        buckets = {}
        for b, bucket in enumerate(per_reducer):
            if bucket:
                buckets[b] = bucket
                sizes[b] += 16 * len(bucket)
        return self.ctx._shuffle_manager.write(
            dep.shuffle_id, partition, buckets, {b: sizes[b] for b in buckets}
        )

    def _run_result_stage(self, stage: Stage, func, trace) -> list[Any]:
        record = StageRecord(stage.id, stage.kind, stage.rdd.id, stage.num_tasks)
        results: list[Any] = [None] * stage.num_tasks

        def make_task(partition: int) -> Callable[[], TaskRecord]:
            def task() -> TaskRecord:
                def body(tc: TaskContext) -> int:
                    results[partition] = func(stage.rdd.iterator(partition, tc))
                    return 0

                return self._attempt_with_retries(stage, partition, body)

            return task

        record.tasks = self._run_tasks([make_task(p) for p in range(stage.num_tasks)])
        trace.stages.append(record)
        return results

    # ------------------------------------------------------------------
    # retry loop & recovery
    # ------------------------------------------------------------------
    def _next_attempt(self, stage_id: int, partition: int) -> int:
        with self._attempt_lock:
            n = self._attempt_counts.get((stage_id, partition), 0) + 1
            self._attempt_counts[(stage_id, partition)] = n
            return n

    def _attempt_with_retries(
        self, stage: Stage, partition: int, body: Callable[[TaskContext], int]
    ) -> TaskRecord:
        """Run one task, retrying injected/transient failures from lineage."""
        ctx = self.ctx
        metrics = ctx.metrics
        last_exc: BaseException | None = None
        for _ in range(self.max_task_retries + 1):
            # Raised outside the try below, so it bypasses the RETRYABLE
            # classification entirely: a deadline overrun mid-retry-storm
            # cuts the storm instead of riding it to JobAborted.
            self._check_deadline()
            attempt = self._next_attempt(stage.id, partition)
            tc = TaskContext(stage.id, partition, attempt)
            start = time.perf_counter()
            token = CURRENT_TASK.set(tc)
            try:
                shuffle_written = self._run_attempt(stage, partition, attempt, tc, body)
            except ShuffleFetchFailed as exc:
                last_exc = exc
                metrics.tasks_retried += 1
                self._recompute_missing(exc)
                continue
            except RETRYABLE as exc:
                last_exc = exc
                metrics.tasks_retried += 1
                if isinstance(exc, TransientIOError):
                    metrics.transient_io_failures += 1
                continue
            except PoisonTaskError:
                # Quarantined by the supervision layer: retrying would
                # only kill more workers.  Propagate typed (the GEP
                # solver catches it inside its task and reruns the
                # batch on the thread path).
                raise
            except Exception as exc:
                raise TaskError(
                    f"task failed in stage {stage.id}, partition {partition}: {exc}",
                    stage.id,
                    partition,
                ) from exc
            finally:
                CURRENT_TASK.reset(token)
            # a kept failure's traceback holds this frame, whose locals
            # hold the failure: drop it, or a retried task is a cycle
            last_exc = None
            return TaskRecord(
                partition=partition,
                executor=ctx._executors.executor_for(partition),
                attempts=attempt,
                records_out=tc.records_out,
                shuffle_bytes_written=shuffle_written,
                shuffle_bytes_read=tc.shuffle_bytes_read,
                shuffle_bytes_remote=tc.shuffle_bytes_remote,
                wall_seconds=time.perf_counter() - start,
                start_ts=start,
                end_ts=time.perf_counter(),
            )
        raise JobAborted(
            f"stage {stage.id} partition {partition} failed after "
            f"{self.max_task_retries + 1} attempts"
        ) from last_exc

    def _run_attempt(
        self,
        stage: Stage,
        partition: int,
        attempt: int,
        tc: TaskContext,
        body: Callable[[TaskContext], int],
    ) -> int:
        """One attempt, with plan-injected task faults; the shuffle
        bytes it wrote."""
        plan = self.ctx.fault_plan
        if plan is not None:
            fault = plan.task_fault(stage.id, partition, attempt)
            if fault == "lose":
                executor = self._lose_executor(partition)
                raise ExecutorLost(
                    f"injected executor loss: executor {executor} died running "
                    f"stage {stage.id} partition {partition} attempt {attempt}",
                    executor,
                )
            if fault == "kill":
                raise TaskKilled(
                    f"injected task exception: stage {stage.id} "
                    f"partition {partition} attempt {attempt}"
                )
        return body(tc)

    def _lose_executor(self, partition: int) -> int:
        """Kill the executor owning ``partition``; drop its shuffle outputs."""
        pool = self.ctx._executors
        executor = pool.executor_for(partition)
        self.ctx._shuffle_manager.drop_executor_outputs(
            lambda mp: pool.executor_for(mp) == executor
        )
        self.ctx.metrics.executor_loss_events += 1
        return executor

    def _recompute_missing(self, exc: ShuffleFetchFailed) -> None:
        """Recompute dropped map outputs from lineage, then let the
        fetching task retry (Spark's map-stage resubmission)."""
        sm = self.ctx._shuffle_manager
        stage = self._shuffle_stages.get(exc.shuffle_id)
        if stage is None or stage.shuffle_dep is None:
            raise exc  # unknown shuffle: a genuine scheduler bug
        dep = stage.shuffle_dep
        with self._recompute_lock:
            missing = [
                mp for mp in exc.missing if not sm.has_output(exc.shuffle_id, mp)
            ]
            for mp in missing:
                self._attempt_with_retries(
                    stage, mp, lambda tc, _mp=mp: self._shuffle_map_task(dep, _mp, tc)
                )
                self.ctx.metrics.partitions_recomputed += 1

    def reclaim(self) -> None:
        """Forget per-solve stage state (``SparkleContext``'s release
        routine: the service's between-requests sweep, and ``stop``).

        A context accretes one :class:`Stage` per shuffle dependency and
        one attempt counter per (stage, partition) for every solve it
        runs; after the solve's RDDs are dead this is pure leak — and
        the stages are what keep those RDDs, and through them a stopped
        context, reachable.
        """
        self._shuffle_stages.clear()
        with self._attempt_lock:
            self._attempt_counts.clear()


def _bucket_records(records: list, part, agg) -> tuple[list, list]:
    """A map task's records by reducer, in Python: per reducer its
    records — or, with a map-side ``agg``, its ``(key, combiner)``
    pairs — and their value bytes.  What :func:`repro.kernels.native.
    bucket` declines runs here, and so does every task on a host
    without the library.

    One pass over the records.  A record's reducer is one lookup in the
    partitioner's memo (:attr:`~repro.sparkle.partitioner.Partitioner.
    placed`) when its key is an exact ``(int, int)`` grid key already
    placed, and :meth:`~repro.sparkle.partitioner.Partitioner.partition`
    otherwise — the memo holds what ``partition`` would answer, so the
    buckets are the same.

    The same pass sizes the record: ``sizeof_block(value)``.  An exact
    array reports its ``nbytes``, which is what ``sizeof_block`` would
    return; any other value is sized once per task through ``walked``,
    keyed by ``id`` (fan-out records share one role tuple, and an ``id``
    cannot be reused while the buckets hold the object).  A map-side
    combine sizes each combiner once, after the combine.
    """
    placed, place = part.placed, part.partition
    # one bucket per reducer: its records, or for a map-side combine
    # its combiners by key
    per_reducer: list = [
        {} if agg is not None else [] for _ in range(part.num_partitions)
    ]
    sizes = [0] * part.num_partitions
    if agg is not None:
        for k, v in records:
            b = placed.get(k)
            # a hit's key is an exact (int, int) only if its members
            # are ints: it is equal to a pair, so it has two
            if b is None or not (
                k.__class__ is tuple
                and k[0].__class__ is int
                and k[1].__class__ is int
            ):
                b = place(k)
            combiners = per_reducer[b]
            if k in combiners:
                combiners[k] = agg.merge_value(combiners[k], v)
            else:
                combiners[k] = agg.create_combiner(v)
        for b, combiners in enumerate(per_reducer):
            per_reducer[b] = bucket = list(combiners.items())
            sizes[b] = sum(sizeof_block(c) for _k, c in bucket)
        return per_reducer, sizes
    walked: dict[int, int] = {}
    for item in records:
        k = item[0]
        b = placed.get(k)
        if b is None or not (
            k.__class__ is tuple
            and k[0].__class__ is int
            and k[1].__class__ is int
        ):
            b = place(k)
        per_reducer[b].append(item)
        v = item[1]
        if v.__class__ is ndarray:
            sizes[b] += v.nbytes
            continue
        known = walked.get(id(v))
        if known is None:
            known = walked[id(v)] = sizeof_block(v)
        sizes[b] += known
    return per_reducer, sizes
