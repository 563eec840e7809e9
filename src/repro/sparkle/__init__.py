"""sparkle — a from-scratch, in-process reimplementation of the Apache
Spark execution model (the paper's execution substrate).

Implements the §II concepts the GEP drivers rely on: lazily evaluated
RDDs with lineage, narrow vs wide dependencies, DAG scheduling into
stages split at shuffles, tasks on a pool of simulated executors,
hash/custom partitioners, shuffle with byte accounting, broadcast
variables, driver ``collect()``, shared persistent
storage for the Collect-Broadcast strategy, lineage-based task retry,
and an execution trace for the cluster cost model.

Fault tolerance is chaos-tested: :mod:`repro.sparkle.chaos` injects
seeded task exceptions, executor loss (dropping staged shuffle outputs
to exercise lineage recomputation), stragglers (raced by speculative
copies), and transient storage/broadcast/staging faults; the scheduler
recovers with deterministic backoff, map-output recomputation, and
executor blacklisting, and every recovery event is metered.

Driver crashes are covered too: :mod:`repro.sparkle.durable` adds a
checksummed on-disk block store (atomic tmp+rename writes, BLAKE2b
manifests) behind ``RDD.checkpoint()`` and the CB shared storage, plus
a write-ahead solve journal that the GEP drivers use for
``--resume``-able, bit-identical crash recovery; ``torn_write`` and
``corrupt_block`` chaos kinds exercise the layer under the same seeded
determinism contract.

Memory exhaustion — the paper's headline IM failure mode — is governed
by :mod:`repro.sparkle.memory`: every context has a governor (unbounded
unless built with ``memory_budget_bytes``), and a budgeted one shares
one byte budget between shuffle staging (execution) and the RDD cache
(storage), spills overflow to a checksummed disk store, queues task
launches under pressure (admission control), and exposes ``ok``/
``pressured``/``critical`` pressure levels that the GEP drivers can
react to by degrading IM→CB mid-solve; the ``mem_squeeze`` chaos kind
shrinks the budget mid-run under the seeded determinism contract.

Worker liveness is supervised (:mod:`repro.sparkle.supervisor`): under
the process backend, workers heartbeat into a shared-memory board
watched by a driver-side watchdog (silent workers are SIGKILLed),
offloaded kernel calls can carry wall-clock deadlines
(``TaskDeadlineExceeded``), and a worker death runs a full crash
protocol — the pool respawns under deterministic bounded backoff and
the in-flight call retries through the scheduler's attempt machinery
(``WorkerCrashed``).  A call
that kills ``max_task_failures`` fresh workers is quarantined
(``PoisonTaskError``); the GEP solver's ``--degrade-on-crash`` then
falls back to the thread backend at the next outer-iteration boundary,
bit-identical.  The ``worker_kill``/``worker_hang``/``worker_oom``
chaos kinds SIGKILL/SIGSTOP *real* worker processes under the same
seeded determinism contract.

Tasks run on the executor pool's task slots: the thread that launches a
stage is one, and *helper slots* on the pool's threads are the others
(a helper that has not started by the time the caller runs out of tasks
is cancelled, so a stage launched from inside a task never waits on a
busy pool).  ``SparkleContext(backend="processes")`` also has a worker plane
(:mod:`repro.sparkle.backend`, ``sc.offload``): one worker process per
simulated executor that kernel tile updates are offloaded to, past the
GIL — a task's call list is pickled out to its worker as it is and the
updated tiles pickled back; the heartbeat board is the only
shared-memory segment.  Shuffle, cache, CB storage and broadcast values
stay on driver threads either way, and both backends produce
bit-identical results and identical scheduler / byte counts.
"""

from .backend import ALIAS_X, BACKENDS, ProcessBackend
from .broadcast import Broadcast
from .chaos import FAULT_KINDS, FaultPlan, FaultSpec
from .context import SparkleContext
from .durable import DurableBlockStore, FsckReport, SolveJournal
from .errors import (
    BlockNotFoundError,
    CorruptBlockError,
    ExecutorLost,
    FrameTooLargeError,
    JobAborted,
    JournalError,
    LastExecutorProtectedWarning,
    PoisonTaskError,
    RequestDeadlineExceeded,
    ResumeMismatchError,
    ServiceDrainingError,
    ServiceOverloadedError,
    ShuffleFetchFailed,
    TenantQuotaExceededError,
    SparkleError,
    TaskDeadlineExceeded,
    TaskError,
    TaskKilled,
    TransientIOError,
    WorkerCrashed,
)
from .memory import (
    MemoryManager,
    PRESSURE_CRITICAL,
    PRESSURE_OK,
    PRESSURE_PRESSURED,
)
from .metrics import (
    EngineMetrics,
    JobTrace,
    ServiceMetrics,
    StageRecord,
    TaskRecord,
)
from .requests import SolveRequest, SolveResponse, solve_fingerprint
from .partitioner import GridPartitioner, HashPartitioner, Partitioner, RangePartitioner
from .rdd import RDD, Aggregator
from .scheduler import TaskContext
from .supervisor import (
    HeartbeatBoard,
    SupervisionConfig,
    WorkerSupervisor,
    purge_segments,
    shm_supported,
)

__all__ = [
    "SparkleContext",
    "ALIAS_X",
    "BACKENDS",
    "ProcessBackend",
    "shm_supported",
    "RDD",
    "Aggregator",
    "Broadcast",
    "Partitioner",
    "HashPartitioner",
    "GridPartitioner",
    "RangePartitioner",
    "EngineMetrics",
    "JobTrace",
    "StageRecord",
    "TaskRecord",
    "TaskContext",
    "SparkleError",
    "TaskError",
    "TaskKilled",
    "ExecutorLost",
    "TransientIOError",
    "ShuffleFetchFailed",
    "JobAborted",
    "BlockNotFoundError",
    "CorruptBlockError",
    "JournalError",
    "ResumeMismatchError",
    "DurableBlockStore",
    "FsckReport",
    "SolveJournal",
    "FaultPlan",
    "FaultSpec",
    "FAULT_KINDS",
    "MemoryManager",
    "PRESSURE_OK",
    "PRESSURE_PRESSURED",
    "PRESSURE_CRITICAL",
    "LastExecutorProtectedWarning",
    "WorkerCrashed",
    "TaskDeadlineExceeded",
    "PoisonTaskError",
    "ServiceOverloadedError",
    "ServiceDrainingError",
    "TenantQuotaExceededError",
    "RequestDeadlineExceeded",
    "FrameTooLargeError",
    "ServiceMetrics",
    "SolveRequest",
    "SolveResponse",
    "solve_fingerprint",
    "SupervisionConfig",
    "WorkerSupervisor",
    "HeartbeatBoard",
    "purge_segments",
]
