"""Engine error types.

Every typed error here must survive a pickle round-trip with its payload
intact: the process backend raises them inside worker processes, and
``concurrent.futures`` ships worker exceptions back to the driver by
pickling them.  ``BaseException.__reduce__`` only replays ``self.args``,
which silently breaks any exception whose ``__init__`` takes more (or
keyword-only) parameters — so each multi-argument error defines an
explicit ``__reduce__`` that reconstructs from its full constructor
signature.
"""

from __future__ import annotations

__all__ = [
    "SparkleError",
    "TaskError",
    "TaskKilled",
    "ExecutorLost",
    "TransientIOError",
    "ShuffleFetchFailed",
    "BlockNotFoundError",
    "CorruptBlockError",
    "JournalError",
    "ResumeMismatchError",
    "JobAborted",
    "LastExecutorProtectedWarning",
    "WorkerCrashed",
    "TaskDeadlineExceeded",
    "PoisonTaskError",
    "ServiceOverloadedError",
    "ServiceDrainingError",
    "TenantQuotaExceededError",
    "RequestDeadlineExceeded",
    "FrameTooLargeError",
]


class SparkleError(RuntimeError):
    """Base class for engine failures."""


class TaskError(SparkleError):
    """A task raised; carries the stage/partition it came from."""

    def __init__(self, message: str, stage_id: int, partition: int) -> None:
        super().__init__(message)
        self.stage_id = stage_id
        self.partition = partition

    def __reduce__(self):
        return (type(self), (self.args[0], self.stage_id, self.partition))


class TaskKilled(SparkleError):
    """Raised by the chaos plane's ``kill`` fault to simulate a task death.

    The scheduler treats it as retryable: the task is recomputed from
    lineage, which is the RDD fault-tolerance story the paper's §II
    summarizes.
    """


class ExecutorLost(SparkleError):
    """An executor died mid-task, taking its shuffle outputs with it.

    Retryable: the task re-runs, and any consumer that later misses the
    dropped map outputs triggers lineage recomputation via
    :class:`ShuffleFetchFailed`.
    """

    def __init__(self, message: str, executor: int) -> None:
        super().__init__(message)
        self.executor = executor

    def __reduce__(self):
        return (type(self), (self.args[0], self.executor))


class TransientIOError(SparkleError):
    """A storage/broadcast read or shuffle staging write flaked.

    Retryable: the fault plan keys transient faults by task attempt, so
    the retry reads/writes clean.
    """


class ShuffleFetchFailed(SparkleError):
    """A reducer found map outputs missing (dropped by executor loss).

    The scheduler reacts by recomputing exactly the missing parent map
    partitions from lineage, then retrying the fetching task — Spark's
    ``FetchFailed`` / map-stage resubmission path.
    """

    def __init__(self, shuffle_id: int, missing: tuple[int, ...]) -> None:
        super().__init__(
            f"shuffle {shuffle_id} missing map output(s) {list(missing)}"
        )
        self.shuffle_id = shuffle_id
        self.missing = tuple(missing)

    def __reduce__(self):
        return (type(self), (self.shuffle_id, self.missing))


class BlockNotFoundError(SparkleError, KeyError):
    """A block store has no entry for the requested key.

    Subclasses :class:`KeyError` for callers doing dict-style handling,
    but carries engine typing so the scheduler can tell "block missing —
    retry/recompute" apart from a programmer error inside a task.
    """

    def __init__(self, message: str, key=None) -> None:
        super().__init__(message)
        self.key = key

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""

    def __reduce__(self):
        return (type(self), (self.args[0], self.key))


class CorruptBlockError(SparkleError):
    """A durable block failed its checksum (torn write, bitrot, tamper).

    Never silently surfaces wrong data: consumers either fall back to
    lineage recomputation (:class:`~repro.sparkle.rdd.
    DurableCheckpointRDD`), fall back to an earlier journaled snapshot
    (solver resume), or report it (``repro fsck``).
    """

    def __init__(self, message: str, key=None) -> None:
        super().__init__(message)
        self.key = key

    def __reduce__(self):
        return (type(self), (self.args[0], self.key))


class JournalError(SparkleError):
    """The write-ahead solve journal is unusable (unparseable, wrong
    version) beyond the torn-tail truncation recovery handles."""


class ResumeMismatchError(JournalError):
    """``--resume`` found a journal written by a different solve
    configuration (fingerprint mismatch); resuming would silently mix
    incompatible state, so the solve refuses instead."""


class JobAborted(SparkleError):
    """A job failed after exhausting task retries."""


class WorkerCrashed(SparkleError):
    """A worker process died mid-kernel (SIGKILL, OOM kill, hard crash).

    Raised by the supervised process backend after it has already
    respawned the pool (the dead worker held only its own copies of the
    batch's tiles, so there is nothing to reclaim).  Retryable: the scheduler re-runs the task attempt through
    the normal backoff machinery, and the retry lands on a fresh worker.
    """

    def __init__(
        self,
        message: str,
        pid: int | None = None,
        reason: str = "crash",
        slot: int | None = None,
    ) -> None:
        super().__init__(message)
        self.pid = pid
        self.reason = reason
        #: worker slot (== executor id) that died — after a blacklisting
        #: this may differ from the partition's nominal executor, and
        #: fault accounting should charge the real victim
        self.slot = slot

    def __reduce__(self):
        return (type(self), (self.args[0], self.pid, self.reason, self.slot))


class TaskDeadlineExceeded(SparkleError):
    """A supervised task ran past its ``task_deadline``.

    If the task had not started yet it is cancelled in place; if it was
    already running, the supervisor SIGKILLs the worker executing it (a
    hung worker cannot be asked nicely) and the pool respawns.  Either
    way the attempt is retryable and counts toward the task's poison
    budget (``max_task_failures``).
    """

    def __init__(
        self, message: str, deadline: float | None = None, elapsed: float | None = None
    ) -> None:
        super().__init__(message)
        self.deadline = deadline
        self.elapsed = elapsed

    def __reduce__(self):
        return (type(self), (self.args[0], self.deadline, self.elapsed))


class PoisonTaskError(SparkleError):
    """One task killed a fresh worker ``max_task_failures`` times.

    The task is quarantined — the supervisor refuses to offload it again
    — and the error carries enough to identify *what* is poisonous: the
    kernel id, the update case, and the tile coordinate (global offsets
    of the tile being updated).  Not retryable through the scheduler;
    under ``--degrade-on-crash`` the GEP solver instead recomputes the
    tile on the deterministic thread path and degrades the whole solve
    to the thread backend at the next outer-iteration boundary.
    """

    def __init__(
        self,
        message: str,
        coordinate: tuple[int, int, int] | None = None,
        case: str | None = None,
        kernel_id: str | None = None,
        failures: int = 0,
    ) -> None:
        super().__init__(message)
        self.coordinate = tuple(coordinate) if coordinate is not None else None
        self.case = case
        self.kernel_id = kernel_id
        self.failures = failures

    def __reduce__(self):
        return (
            type(self),
            (self.args[0], self.coordinate, self.case, self.kernel_id, self.failures),
        )


class ServiceOverloadedError(SparkleError):
    """The solver service shed a request at admission (overload control).

    Raised *before* any engine work starts: the request queue is full for
    the current memory-pressure level, or pressure is critical and the
    service refuses new work outright.  Always retryable by the client —
    ``retry_after`` is the service's backoff hint in seconds.
    """

    def __init__(
        self,
        message: str,
        level: str | None = None,
        queue_depth: int | None = None,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.level = level
        self.queue_depth = queue_depth
        self.retry_after = retry_after

    def __reduce__(self):
        return (
            type(self),
            (self.args[0], self.level, self.queue_depth, self.retry_after),
        )


class ServiceDrainingError(SparkleError):
    """The solver service is draining for shutdown and refuses new work.

    Raised at admission once SIGTERM/SIGINT (or an explicit
    :meth:`~repro.service.SolverService.drain`) has flipped the service
    into its drain phase: in-flight and queued requests run to
    settlement, but no new work is accepted.  Retryable — journaled
    in-flight requests are replayed by ``repro serve --resume``, so a
    client that retries (reusing its idempotency key) against the
    restarted instance gets the same result.  ``retry_after`` is the
    service's hint for when a successor is expected to be listening.
    """

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after

    def __reduce__(self):
        return (type(self), (self.args[0], self.retry_after))


class TenantQuotaExceededError(SparkleError):
    """A tenant hit its own byte quota or admission rate limit.

    Isolation, not survival: the *tenant's* in-flight solves plus cached
    results would exceed the share carved out for it on the memory
    governor's ledgers (``quota_bytes``), or its token bucket is out of
    admission tokens (``used_bytes``/``quota_bytes`` are then ``None``).
    Only the offending tenant is refused — no other tenant's queued work
    or cached state is touched, evicted, or degraded on its behalf.
    Always retryable: ``retry_after`` is the service's hint for when the
    tenant's in-flight work (or token bucket) should have drained enough
    to admit the retry.
    """

    def __init__(
        self,
        message: str,
        tenant: str | None = None,
        used_bytes: int | None = None,
        quota_bytes: int | None = None,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.used_bytes = used_bytes
        self.quota_bytes = quota_bytes
        self.retry_after = retry_after

    def __reduce__(self):
        return (
            type(self),
            (
                self.args[0],
                self.tenant,
                self.used_bytes,
                self.quota_bytes,
                self.retry_after,
            ),
        )


class FrameTooLargeError(SparkleError):
    """A socket frame announced a length above the server's cap.

    The wire protocol is length-prefixed pickle; without a cap a single
    hostile (or corrupt) 8-byte header could make the server allocate
    petabytes.  The frame is refused *before* any payload is read, the
    error is shipped back typed, and the connection is closed — the
    accept loop is unaffected.  Not retryable: the same frame would be
    refused again.
    """

    def __init__(
        self,
        message: str,
        length: int | None = None,
        limit: int | None = None,
    ) -> None:
        super().__init__(message)
        self.length = length
        self.limit = limit

    def __reduce__(self):
        return (type(self), (self.args[0], self.length, self.limit))


class RequestDeadlineExceeded(SparkleError):
    """A service request ran past its per-request deadline.

    Distinct from :class:`TaskDeadlineExceeded` (one offloaded kernel
    call overran): this is the *request-plane* deadline covering queueing
    plus the whole engine pass.  The scheduler checks it at stage and
    attempt boundaries and aborts the solve mid-flight; the service then
    reclaims all per-solve engine state, so a cancelled request leaks
    nothing.  Retryable by the client (with a larger deadline).
    """

    def __init__(
        self,
        message: str,
        deadline: float | None = None,
        elapsed: float | None = None,
    ) -> None:
        super().__init__(message)
        self.deadline = deadline
        self.elapsed = elapsed

    def __reduce__(self):
        return (type(self), (self.args[0], self.deadline, self.elapsed))


class LastExecutorProtectedWarning(RuntimeWarning):
    """A blacklist request was refused to keep the last healthy executor.

    The simulated cluster must keep at least one node able to run tasks;
    refusing silently used to hide that a fault threshold was crossed on
    the final survivor.  The refusal is also metered as
    ``EngineMetrics.last_executor_protected``.
    """
