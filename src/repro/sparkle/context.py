"""The driver context: entry point to the sparkle engine.

:class:`SparkleContext` plays the role of ``pyspark.SparkContext`` for
the subset of the API the paper's programs use (plus a few conveniences):
``parallelize``, ``union``, ``broadcast``, shared persistent storage for
the Collect-Broadcast strategy, and the metrics/trace surface the cost
model consumes.

Example
-------
>>> from repro.sparkle import SparkleContext
>>> with SparkleContext(num_executors=2, cores_per_executor=2) as sc:
...     sc.parallelize(range(10)).map(lambda x: x * x).collect()[:3]
[0, 1, 4]
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..util import sizeof_block
from .broadcast import Broadcast
from .supervisor import SupervisionConfig
from .chaos import FaultPlan
from .durable import DurableBlockStore
from .executors import ExecutorPool
from .memory import MemoryManager
from .metrics import EngineMetrics
from .rdd import RDD, ParallelCollectionRDD, UnionRDD
from .scheduler import DAGScheduler
from .shuffle import ShuffleManager
from .storage import BlockManager, SharedStorage

__all__ = ["SparkleContext"]


class SparkleContext:
    """Driver for an in-process simulated Spark cluster.

    Parameters
    ----------
    num_executors:
        Simulated executors (the paper runs one per compute node).
    cores_per_executor:
        Task slots per executor (``executor-cores``).
    default_parallelism:
        Default partition count for wide transformations; the paper's
        guideline is 2x the total core count, which is also our default.
    fault_plan:
        A :class:`~repro.sparkle.chaos.FaultPlan` arming seeded task
        exceptions, executor loss, transient storage / broadcast /
        staging faults.  While attached (and
        ``plan.serialize_tasks``), stage tasks run in partition order so
        recovery traces are deterministic.
    checkpoint_dir:
        Directory for the durable layer (:class:`~repro.sparkle.durable.
        DurableBlockStore`).  When set, the GEP drivers journal
        iteration snapshots here for ``--resume``.  ``None`` keeps
        everything in memory.
    memory_budget_bytes:
        Byte budget of the unified memory governor (:class:`~repro.
        sparkle.memory.MemoryManager`, always present as
        ``memory_manager``): RDD-cache puts and shuffle staging share
        it, overflow spills to disk, and task launches queue when a
        working-set quantum does not fit (scheduler backpressure).
        ``None`` (the default) makes the governor unbounded: the same
        ledgers, but every reservation fits, nothing spills and no task
        waits.  CB shared storage is never budgeted (the paper's §IV-C
        asymmetry).
    spill_dir:
        Directory for the spill store backing MEMORY_AND_DISK eviction
        and shuffle spill.  Defaults to ``<checkpoint_dir>/spill`` when
        a checkpoint dir is set, else a temporary directory removed in
        :meth:`stop`.  Only a budget spills, so a ``spill_dir`` without
        ``memory_budget_bytes`` raises ``ValueError``.
    backend:
        ``"threads"`` (default — tasks and their kernels run on the
        executor pool's task slots) or ``"processes"`` (the same, plus a
        worker plane, :attr:`offload`: one worker process per simulated
        executor; kernel tile updates run past the GIL — a task's call
        list is pickled out to its worker in one batch, the updated
        tiles pickled back; an unknown name raises ``ValueError``).
        Results and every scheduler / byte count are identical across
        backends; ``"threads"`` remains the reference data plane for
        the chaos / durability / memory determinism contracts.
    supervision:
        The process backend's worker supervision (DESIGN.md §13):
        heartbeat interval, per-call deadline and poison threshold, as
        a :class:`~repro.sparkle.supervisor.SupervisionConfig`; ``None``
        takes its defaults.  The thread backend has no process boundary
        to supervise.
    """

    def __init__(
        self,
        num_executors: int = 4,
        cores_per_executor: int = 2,
        default_parallelism: int | None = None,
        fault_plan: FaultPlan | None = None,
        checkpoint_dir: str | None = None,
        memory_budget_bytes: int | None = None,
        spill_dir: str | None = None,
        backend: str = "threads",
        supervision: SupervisionConfig | None = None,
    ) -> None:
        if spill_dir is not None and memory_budget_bytes is None:
            raise ValueError(
                "spill_dir requires memory_budget_bytes (only a budget spills)"
            )
        self.num_executors = num_executors
        self.cores_per_executor = cores_per_executor
        self.default_parallelism = (
            default_parallelism
            if default_parallelism is not None
            else 2 * num_executors * cores_per_executor
        )
        if self.default_parallelism < 1:
            raise ValueError("default_parallelism must be >= 1")
        self.backend = backend
        self.metrics = EngineMetrics()
        self.metrics.backend = backend
        self.fault_plan = fault_plan
        self.supervision = supervision or SupervisionConfig()
        #: the memory governor — always present, unbounded without a
        #: budget; built before the executor pool, whose worker plane
        #: an invalid budget must not leave running
        self.memory_manager = MemoryManager(
            memory_budget_bytes,
            metrics=self.metrics,
            task_quantum_bytes=(
                max(1, memory_budget_bytes // (4 * self.total_cores))
                if memory_budget_bytes is not None
                else None
            ),
        )
        self._executors = ExecutorPool(
            num_executors,
            cores_per_executor,
            metrics=self.metrics,
            backend=backend,
            supervision=self.supervision,
            fault_plan=fault_plan,
        )
        self.memory_manager.executor_resolver = self._executors.executor_for
        #: the worker plane of ``backend="processes"`` (None for
        #: threads) and its supervisor
        self.offload = self._executors.offload
        self.supervisor = self.offload.supervisor if self.offload is not None else None
        self.spill_store: DurableBlockStore | None = None
        self._spill_tmpdir: str | None = None
        if self.memory_manager.bounded:
            if spill_dir is None:
                if checkpoint_dir is not None:
                    spill_dir = str(Path(checkpoint_dir) / "spill")
                else:
                    self._spill_tmpdir = tempfile.mkdtemp(prefix="sparkle-spill-")
                    spill_dir = self._spill_tmpdir
            # Spill blocks are recomputable from lineage, so the spill
            # store skips fsyncs (sync=False) but keeps atomic renames
            # and checksummed read-back verification.
            self.spill_store = DurableBlockStore(
                spill_dir, metrics=self.metrics, fault_plan=fault_plan, sync=False
            )
        self._shuffle_manager = ShuffleManager(
            self.memory_manager,
            fault_plan=fault_plan,
            spill=self.spill_store,
            metrics=self.metrics,
        )
        self._block_manager = BlockManager(
            self.memory_manager, spill=self.spill_store, metrics=self.metrics
        )
        self.durable_store: DurableBlockStore | None = None
        self.shared_storage = SharedStorage(self.metrics, fault_plan=fault_plan)
        self._scheduler = DAGScheduler(self)
        self._next_rdd_id = 0
        self._next_broadcast_id = 0
        self._stopped = False
        if checkpoint_dir is not None:
            self.setCheckpointDir(checkpoint_dir)

    # ------------------------------------------------------------------
    # RDD creation
    # ------------------------------------------------------------------
    def parallelize(self, data: Iterable, num_partitions: int | None = None) -> RDD:
        """Distribute a driver-side collection."""
        self._check_active()
        n = num_partitions if num_partitions is not None else self.default_parallelism
        return ParallelCollectionRDD(self, list(data), n)

    def union(self, rdds: Sequence[RDD]) -> RDD:
        """Union of several RDDs (``sc.union`` in the paper's listings)."""
        self._check_active()
        rdds = list(rdds)
        if len(rdds) == 1:
            return rdds[0]
        return UnionRDD(self, rdds)

    # ------------------------------------------------------------------
    # driver services
    # ------------------------------------------------------------------
    def broadcast(self, value: Any) -> Broadcast:
        self._check_active()
        bc = Broadcast(
            self._next_broadcast_id,
            value,
            self.num_executors,
            self.metrics,
            fault_plan=self.fault_plan,
        )
        self._next_broadcast_id += 1
        return bc

    def run_job(self, rdd: RDD, func: Callable[[Iterator], Any], action: str) -> list:
        self._check_active()
        return self._scheduler.run_job(rdd, func, action)

    def setCheckpointDir(self, path: str) -> DurableBlockStore:
        """Attach the durable layer (PySpark's ``setCheckpointDir``).

        Idempotent for the same directory; the GEP drivers journal their
        iteration snapshots to it — a solve's one durable recovery point
        (CB shared storage and ``RDD.checkpoint()`` stay in memory).
        """
        self._check_active()
        if self.durable_store is not None:
            if str(self.durable_store.root) != str(path):
                raise ValueError(
                    f"checkpoint dir already set to {self.durable_store.root}"
                )
            return self.durable_store
        self.durable_store = DurableBlockStore(
            path, metrics=self.metrics, fault_plan=self.fault_plan
        )
        return self.durable_store

    #: job traces a context that lives across many solves keeps: the
    #: ring :meth:`reclaim_solve_state` trims ``metrics.jobs`` to
    KEEP_JOB_TRACES = 64

    def reclaim_solve_state(self) -> None:
        """Release per-solve engine state between requests (the solver
        service calls this after every engine pass).

        Inside a solve the scheduler already frees each sealed shuffle
        and cached RDD with its last reader; what is left when the solve
        returns — its final generation, CB's shared-storage keys
        (``("pivot", k)`` / ``("bc", k, key)``), anything recovery
        re-staged, the scheduler's stage/attempt maps, unbounded job
        traces — a context that lives across many solves would
        otherwise accrete.  Everything releases through the same paths
        normal retirement uses (governor bytes, spill files; CB storage
        values are plain references, dropped), so a swept context is
        byte-identical to a fresh one as far as the accounting ledgers
        can tell.

        :attr:`KEEP_JOB_TRACES` bounds the metrics trace ring; aggregate
        counters on :class:`~repro.sparkle.metrics.EngineMetrics` are
        untouched (they are cheap and context-lifetime by design).
        """
        self._check_active()
        self._release_solve_state()
        del self.metrics.jobs[: max(0, len(self.metrics.jobs) - self.KEEP_JOB_TRACES)]

    def _release_solve_state(self) -> None:
        """Let go of every staged shuffle output, cached block and
        shared-storage value, and of the scheduler's stages (which hold
        the RDD lineage, which holds this context)."""
        self._shuffle_manager.clear()
        self._block_manager.clear()
        self.shared_storage.clear()
        self._scheduler.reclaim()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Shut the executors down and free what the context holds.

        A stopped context holds no data: the stores are emptied (the
        same release :meth:`reclaim_solve_state` performs, before the
        spill directory goes), so the tiles of its solves die by
        reference count the moment the caller's ``with`` block ends —
        not at some later cyclic collection, which a benchmark life of
        four solves never reaches.  Metrics and reports stay readable.
        Idempotent.
        """
        if not self._stopped:
            self._executors.shutdown()
            self._release_solve_state()
            if self._spill_tmpdir is not None:
                shutil.rmtree(self._spill_tmpdir, ignore_errors=True)
                self._spill_tmpdir = None
            self._stopped = True

    def __enter__(self) -> "SparkleContext":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _check_active(self) -> None:
        if self._stopped:
            raise RuntimeError("SparkleContext is stopped")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _new_rdd_id(self) -> int:
        rid = self._next_rdd_id
        self._next_rdd_id += 1
        return rid

    def _record_collect(self, items: list) -> None:
        """Charge a collect's driver traffic to the current job trace."""
        if self.metrics.jobs:
            nbytes = sum(sizeof_block(x) for x in items)
            self.metrics.jobs[-1].collect_bytes += nbytes

    @property
    def total_cores(self) -> int:
        return self.num_executors * self.cores_per_executor

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SparkleContext(executors={self.num_executors}, "
            f"cores={self.cores_per_executor}, "
            f"parallelism={self.default_parallelism})"
        )
