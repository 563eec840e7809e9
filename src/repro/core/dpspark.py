"""The distributed GEP drivers: In-Memory and Collect-Broadcast.

This module is the paper's §IV-C — the top-level "Spark programs" of
Listings 1 and 2, generalized over any :class:`~repro.core.gep.GepSpec`
and either kernel family, running on the :mod:`repro.sparkle` engine.

The DP table is decomposed into an ``r x r`` grid of tiles held in a
pair RDD keyed by tile coordinate; each outer iteration ``k`` runs the
A → (B ‖ C) → D stage pattern:

* **IM (In-Memory, Listing 1)** — every kernel emits, besides its
  updated tile, the *copies* its consumers need (the pivot tile fans
  out to ``2(r-k-1) + (r-k-1)^2`` copies for GE); wide
  ``combineByKey`` transformations couple each consumer tile with its
  operands.  Entirely RDD-resident, but shuffle-heavy: its staged
  copies are what the memory governor budgets (the paper's staging /
  memory wall).
* **CB (Collect-Broadcast, Listing 2)** — pivot-generation tiles are
  ``collect()``-ed to the driver and re-distributed through shared
  persistent storage; consumer kernels read their operands from storage
  instead of the shuffle.  Trades shuffle traffic for driver/storage
  traffic.

Both produce bit-identical results to the single-node blocked executor
(and hence to the scalar reference); the integration tests pin that
down across strategies, kernels, grid shapes and partitioners — and,
via the seeded chaos harness (:mod:`repro.sparkle.chaos`), under
injected task kills, executor loss and transient I/O faults: every
kernel works on a private copy of its tile, so retried attempts and
recomputed map partitions are pure recomputations from lineage and
recovery can never corrupt the DP table.  A run's recovery cost is
surfaced on :attr:`SolveReport.recovery`.

Data plane.  Kernel invocations go through :meth:`GepSparkSolver.
_run_tile_batch` — one call list per task — which never mutates its
inputs.  The list is the unit on either side of the process boundary
(:mod:`repro.kernels.base`): :func:`~repro.kernels.base.update_tiles`
runs it on the task's thread — the iterative kernel takes the case-D
tiles a *stack* at a time (:meth:`~repro.kernels.IterativeKernel.
run_stacks`; the stack of the inputs is the private copy),
:func:`~repro.kernels.base.update_tile` gives every other call its
``tile.copy()`` and resolves intra-tile aliasing (A's ``u=v=w=x``, B's
``v=x``, C's ``u=x``, written :data:`~repro.kernels.base.ALIAS_X` or as
the tile itself) against the copy.  When the context has a worker plane
(``SparkleContext(backend="processes")``, ``sc.offload``) and the kernel
pickles, the same list is pickled to a worker in one round-trip — each
distinct array once, shuffled, CB-stored or broadcast alike — where the
same ``update_tiles`` runs it, stacks included, and the updated tiles
are pickled back.  Every result owns its memory, and both paths are bit-identical;
the backend-parity property test pins that down.  So a call the worker
plane quarantines as poison costs the solve nothing but speed: its task
reruns on the thread path, and so does every task after it.
"""

from __future__ import annotations

import contextlib
import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..kernels import (
    IterativeKernel,
    KernelStats,
    LockingKernelStats,
    RecursiveKernel,
)
from ..kernels.base import ALIAS_X, update_tiles
from ..kernels.openmp import OmpRuntime
from ..sparkle import HashPartitioner, Partitioner, SparkleContext
from ..sparkle.durable import SolveJournal
from ..sparkle.errors import (
    BlockNotFoundError,
    CorruptBlockError,
    PoisonTaskError,
    ResumeMismatchError,
)
from ..sparkle.metrics import EngineMetrics
from ..sparkle.rdd import CheckpointedRDD
from ..sparkle.requests import solve_fingerprint
from .blocked import b_range, c_range, grid_bounds, updated_tiles
from .gep import GepSpec

__all__ = ["GepSparkSolver", "SolveReport", "make_kernel"]


def make_kernel(
    spec: GepSpec,
    kind: str = "iterative",
    *,
    r_shared: int = 2,
    base_size: int = 64,
    omp_threads: int = 1,
    pure_loop: bool = False,
):
    """Build a tile kernel by name: ``"iterative"`` or ``"recursive"``.

    Mirrors the paper's four benchmark configurations: IM/CB cross
    iterative/recursive, with ``r_shared`` and ``OMP_NUM_THREADS``
    applying to the recursive family only.
    """
    if kind == "iterative":
        return IterativeKernel(spec, pure_loop=pure_loop)
    if kind == "recursive":
        runtime = OmpRuntime(omp_threads)
        return RecursiveKernel(spec, r_shared=r_shared, base_size=base_size, runtime=runtime)
    raise ValueError(f"unknown kernel kind {kind!r}")


@dataclass
class SolveReport:
    """Everything observable about one distributed solve.

    The cluster cost model consumes ``engine_metrics`` (stage/shuffle/
    collect/storage trace) together with the solve configuration to
    produce simulated cluster seconds.
    """

    spec_name: str
    strategy: str
    n: int
    r: int
    kernel: dict[str, Any]
    num_partitions: int
    engine_metrics: EngineMetrics | None = None
    kernel_stats: Any = None
    wall_seconds: float = 0.0
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def recovery(self) -> dict[str, Any] | None:
        """Fault-recovery counters for this run (None without an engine).

        Nonzero entries quantify how much recovery work (retries,
        lineage recomputation) the run absorbed — the overhead
        the paper's §V failure reports leave unmeasured.
        """
        return self.engine_metrics and self.engine_metrics.summary("recovery")

    @property
    def memory(self) -> dict[str, Any] | None:
        """Memory-governor counters (spill, pressure, admission waits).

        All zeros / empty when the run was not memory-budgeted; ``None``
        without an engine.
        """
        return self.engine_metrics and self.engine_metrics.summary("memory")

    def summary(self) -> dict[str, Any]:
        out = {
            "spec": self.spec_name,
            "strategy": self.strategy,
            "n": self.n,
            "r": self.r,
            "kernel": dict(self.kernel),
            "partitions": self.num_partitions,
            "wall_seconds": round(self.wall_seconds, 4),
        }
        if self.engine_metrics is not None:
            out.update(self.engine_metrics.summary())
        if self.kernel_stats is not None:
            out["kernel_updates"] = self.kernel_stats.updates
            out["kernel_invocations"] = self.kernel_stats.total_invocations
        if self.extras:
            out["extras"] = dict(self.extras)
        return out


@dataclass
class _DriverState:
    """Per-solve bookkeeping of the solve loop."""

    active_strategy: str
    resumed_from: int | None
    degraded_at: int | None = None
    completed: int = 0
    partial: bool = False


class GepSparkSolver:
    """Distributed GEP solver over the sparkle engine.

    Parameters
    ----------
    spec:
        The GEP problem.
    sc:
        An active :class:`~repro.sparkle.SparkleContext`.
    r:
        Grid decomposition parameter (``r x r`` tiles).  The paper tunes
        this against block size; tiles are near-equal when ``r ∤ n``.
    kernel:
        A tile kernel from :func:`make_kernel` (or compatible).
    strategy:
        ``"im"`` (Listing 1), ``"cb"`` (Listing 2), or ``"bcast"`` — a
        design-space ablation beyond the paper: like CB, but the driver
        re-distributes pivot-generation tiles with Spark broadcast
        variables instead of shared persistent storage (charging
        ``nbytes x executors`` of network instead of storage I/O).  Not
        covered by the cluster cost model.
    partitioner:
        Partitioner instance; default hash (the paper's choice) over the
        context's ``default_parallelism`` partitions (the paper's 2x
        total cores), or a :class:`~repro.sparkle.GridPartitioner` for
        the §VI ablation.
    collect_stats:
        Record kernel work counters (thread-safe, slight overhead).
    checkpoint_every:
        Truncate the DP RDD's lineage every this many iterations
        (Spark-style checkpointing, in memory) so driver DAG-walk costs
        stay bounded for large ``r``; ``None`` disables.  A journaled
        solve's per-iteration snapshot already cuts the lineage, so
        this applies to a solve without a journal.
    resume:
        Resume a crashed solve from its write-ahead journal.  Requires a
        context constructed with ``checkpoint_dir``; the journal's
        config/input fingerprint must match this solve, otherwise
        :class:`~repro.sparkle.errors.ResumeMismatchError`.  If no
        journal (or no intact snapshot) exists the solve silently starts
        fresh, so ``--resume`` is safe as an always-on flag.
    max_iterations:
        Stop after this many completed (journaled, if durable) outer
        iterations; the partial result is flagged on
        ``report.extras["partial"]``.  Pair with ``resume`` for staged
        long solves.
    on_iteration:
        ``f(k)`` called after each completed outer iteration — progress
        reporting; for a journaled solve it runs *after* the journal
        commit for ``k``, which the crash-resume tests exploit.
    degrade_on_pressure:
        Graceful degradation under memory pressure: when the context's
        memory governor touched ``critical`` pressure since the previous
        outer-iteration boundary and the active strategy is ``im``,
        switch the remaining iterations to ``cb`` — the paper's
        recommended manual fallback
        (IM stops scaling where CB survives), automated.  IM and CB are
        bit-identical per iteration, so the degraded result is
        bit-identical too; the switch is recorded on
        ``report.extras["degraded"]`` and metered as
        ``strategy_degradations``.  An unbounded context, whose
        governor never reaches ``critical``, raises ``ValueError``; a CB
        or bcast solve has nothing to degrade.

    A poison kernel call needs no option: when the worker plane
    quarantines one (:class:`~repro.sparkle.errors.PoisonTaskError` —
    the call killed ``max_task_failures`` fresh workers), kernel offload
    is off for the rest of the solve and the task's batch reruns on the
    driver's thread path — processes→threads, the backend analogue of
    the IM→CB fallback, with bit-identical math.  Recorded on
    ``report.extras["backend_degradations"]`` and metered once per solve
    as ``backend_degradations``.

    Durability protocol (when the context has a ``checkpoint_dir``): on
    every completed outer iteration the tile grid is snapshotted into
    the durable store (checksummed, crash-atomic), *then* a journal
    record for ``k`` is appended — the commit point — and only then does
    the solve advance.  A killed driver restarts from the last journaled
    iteration whose snapshot verifies (falling back to the previous one
    if a block is corrupt) and produces bit-identical output to an
    uninterrupted run.
    """

    def __init__(
        self,
        spec: GepSpec,
        sc: SparkleContext,
        *,
        r: int,
        kernel,
        strategy: str = "im",
        partitioner: Partitioner | None = None,
        collect_stats: bool = True,
        checkpoint_every: int | None = None,
        resume: bool = False,
        max_iterations: int | None = None,
        on_iteration: Callable[[int], None] | None = None,
        degrade_on_pressure: bool = False,
    ) -> None:
        if strategy not in ("im", "cb", "bcast"):
            raise ValueError(f"unknown strategy {strategy!r}")
        if r < 1:
            raise ValueError("r must be >= 1")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if max_iterations is not None and max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if resume and sc.durable_store is None:
            raise ValueError(
                "resume requires a SparkleContext with a checkpoint_dir"
            )
        if degrade_on_pressure and not sc.memory_manager.bounded:
            raise ValueError("degrade_on_pressure requires a memory-budgeted context")
        self.checkpoint_every = checkpoint_every
        self.resume = resume
        self.degrade_on_pressure = degrade_on_pressure
        # Set once a poison quarantine sends the solve to the thread
        # path; offload stays off for the rest of that solve.
        self._fell_back = False
        self._fall_back_lock = threading.Lock()
        self.max_iterations = max_iterations
        self.on_iteration = on_iteration
        self.spec = spec
        self.sc = sc
        self.r = r
        self.kernel = kernel
        self.strategy = strategy
        self.partitioner = partitioner or HashPartitioner(sc.default_parallelism)
        self.stats = LockingKernelStats() if collect_stats else None
        # Kernel pickle probe for offload: resolved lazily on first
        # use (False = not probed yet; None = the kernel does not
        # pickle — kernels are duck-typed, one may hold a lock — so tile
        # updates stay on the driver's thread path).
        self._kernel_blob: bytes | None | bool = False

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def solve(self, table: np.ndarray) -> tuple[np.ndarray, SolveReport]:
        """Run the full GEP on ``table``; returns (result, report)."""
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("GEP requires a square table")
        start = time.perf_counter()
        n = table.shape[0]
        bounds = grid_bounds(n, self.r)
        nt = len(bounds) - 1
        store = self.sc.durable_store
        journal = SolveJournal(store.root) if store is not None else None
        fingerprint = (
            self._fingerprint(table, n, nt) if journal is not None else None
        )

        def active(k: int) -> bool:
            return any(
                self.spec.k_active(g, n) for g in range(bounds[k], bounds[k + 1])
            )

        tiles = None
        start_k = 0
        resumed_from: int | None = None
        if journal is not None and self.resume and journal.exists:
            restored = self._try_resume(journal, store, fingerprint, nt)
            if restored is not None:
                tiles, start_k, resumed_from = restored
        if tiles is None:
            if journal is not None:
                self._journal_begin(journal, fingerprint, n, nt)
            tiles = self._initial_tiles(table, bounds, nt)
        dp = self.sc.parallelize(tiles).partitionBy(partitioner=self.partitioner)

        self._kept_snapshots = [resumed_from] if resumed_from is not None else []
        self._fell_back = False
        state = _DriverState(self.strategy, resumed_from)
        for k in range(start_k, nt):
            if not active(k):
                continue
            self._iteration_boundary(k, state)
            if state.active_strategy == "im":
                dp = self._im_iteration(dp, k, bounds, nt, n)
            else:
                operands = _OPERANDS[state.active_strategy](self.sc, k)
                dp = self._collect_iteration(dp, k, bounds, nt, n, operands)
            # iteration k's intermediates and the previous generation get
            # no reader beyond those just derived: free them as read
            dp.seal()
            if journal is not None:
                dp = self._journal_iteration(journal, store, dp, k, nt)
            elif (
                self.checkpoint_every is not None
                and (k + 1) % self.checkpoint_every == 0
            ):
                dp = dp.checkpoint()
            elif self.degrade_on_pressure:
                # The DP lineage is lazy: without a per-iteration job
                # (the journal's snapshot, a checkpoint) nothing executes
                # until the final collect, so the governor would never
                # observe pressure at an iteration boundary.  Drain one probe
                # job so iteration k's stages run now — stage reuse
                # keeps this incremental, exactly like the journal path.
                self.sc.run_job(dp, _drain_iterator, action="pressure_probe")
            if self.on_iteration is not None:
                self.on_iteration(k)
            state.completed += 1
            if (
                self.max_iterations is not None
                and state.completed >= self.max_iterations
            ):
                state.partial = any(active(kk) for kk in range(k + 1, nt))
                break
        result = self._assemble(dp, bounds, n, dtype=self.spec.dtype)
        if journal is not None and not state.partial:
            journal.append({"kind": "done"})
            self.sc.metrics.journal_appends += 1
        return result, self._report(state, n, nt, start)

    # ------------------------------------------------------------------
    # solve-loop scaffolding
    # ------------------------------------------------------------------
    def _journal_begin(self, journal, fingerprint: str, n: int, nt: int) -> None:
        """Start a fresh journal with this solve's identity record."""
        journal.reset()
        journal.append(
            {
                "kind": "begin",
                "fingerprint": fingerprint,
                "spec": self.spec.name,
                "strategy": self.strategy,
                "n": n,
                "r": self.r,
                "nt": nt,
            }
        )
        self.sc.metrics.journal_appends += 1

    def _iteration_boundary(self, k: int, state: "_DriverState") -> None:
        """Degrade checks (and the chaos squeeze) before iteration ``k``."""
        metrics = self.sc.metrics
        mm = self.sc.memory_manager
        plan = self.sc.fault_plan
        if mm.bounded and plan is not None:
            # Chaos: a seeded mid-solve budget shrink (the cluster
            # losing memory headroom).  Driver-side and keyed only by
            # the iteration, so the decision — and every pressure
            # transition it causes — is deterministic per seed.  Only a
            # budget can shrink, so an unbudgeted run draws no squeeze.
            factor = plan.mem_squeeze(k)
            if factor < 1.0:
                mm.squeeze(factor)
        if (
            self.degrade_on_pressure
            and state.active_strategy == "im"
            and mm.critical_since_last_check()
        ):
            # Graceful degradation at the iteration boundary: finish
            # the solve Collect-Broadcast style (bit-identical, but
            # its working set lives in shared storage, which the
            # governor deliberately does not budget — paper §IV-C).
            state.active_strategy = "cb"
            state.degraded_at = k
            metrics.strategy_degradations += 1

    def _report(
        self, state: "_DriverState", n: int, nt: int, start: float
    ) -> SolveReport:
        """Assemble the :class:`SolveReport` and its ``extras``."""
        sc = self.sc
        kernel = self.kernel.describe()
        if sc.offload is not None and sc.offload.worker_fold is not None:
            # the workers ran the tiles: report their fold, not ours
            kernel = {**kernel, "fold": sc.offload.worker_fold}
        report = SolveReport(
            spec_name=self.spec.name,
            strategy=self.strategy,
            n=n,
            r=self.r,
            kernel=kernel,
            num_partitions=sc.default_parallelism,
            engine_metrics=sc.metrics,
            kernel_stats=self.stats,
            wall_seconds=time.perf_counter() - start,
        )
        extras = report.extras
        if state.partial:
            extras["partial"] = {
                "iterations_completed": state.completed,
                "grid_iterations": nt,
            }
        if state.resumed_from is not None:
            extras["resumed_from_iteration"] = state.resumed_from
        if state.degraded_at is not None:
            extras["degraded"] = {
                "from": "im",
                "to": "cb",
                "at_iteration": state.degraded_at,
            }
        if self._fell_back:
            extras["backend_degradations"] = [
                {
                    "from": "processes",
                    "to": "threads",
                    "quarantined_tasks": len(sc.supervisor.quarantined()),
                }
            ]
        if sc.memory_manager.bounded:
            extras["memory_budget"] = sc.memory_manager.usage()
        if sc.fault_plan is not None:
            extras["chaos"] = sc.fault_plan.describe()
            extras["faults_injected"] = sc.fault_plan.fired()
        return report

    # ------------------------------------------------------------------
    # durability: write-ahead journal + snapshot/restore
    # ------------------------------------------------------------------
    def _fingerprint(self, table: np.ndarray, n: int, nt: int) -> str:
        """Config/input identity a journal must match to be resumable.

        Delegates to :func:`repro.sparkle.requests.solve_fingerprint` so
        the resume journal, the service's single-flight dedup table, and
        the result cache all key on the *same* digest — see that module
        for what is (and is deliberately not) covered.
        """
        return solve_fingerprint(
            self.spec.name,
            self.spec.dtype,
            n,
            self.r,
            nt,
            self.strategy,
            self.kernel.describe(),
            table,
        )

    def _journal_iteration(self, journal, store, dp, k: int, nt: int):
        """WAL commit of completed iteration ``k``.

        Order matters: snapshot blocks land (checksummed, atomic) before
        the journal record, so the record *is* the commit point — a
        crash in between resumes from ``k - 1`` and merely leaves
        unreferenced snapshot blocks for ``fsck`` to report.  Returns
        the materialized grid as a lineage-truncated RDD (the snapshot
        is now the recovery point, Spark's reliable-checkpoint rule) —
        so the replaced lineage is sealed, ``dp`` included, and the
        snapshot job frees what it is the last reader of.
        """
        dp.seal(inclusive=True)
        parts = self.sc.run_job(dp, list, action="snapshot")
        for items in parts:
            for (i, j), tile in items:
                store.put(("snap", k, i, j), tile)
        journal.append({"kind": "iteration", "k": k})
        self.sc.metrics.journal_appends += 1
        self._kept_snapshots.append(k)
        # Keep the last two snapshots so a corrupt block in the newest
        # one still has an intact fallback; prune anything older.
        while len(self._kept_snapshots) > 2:
            old = self._kept_snapshots.pop(0)
            for i in range(nt):
                for j in range(nt):
                    store.delete(("snap", old, i, j))
        return CheckpointedRDD(self.sc, parts, dp.partitioner)

    def _try_resume(self, journal, store, fingerprint: str, nt: int):
        """Restore ``(tiles, start_k, resumed_from)`` from the journal.

        Walks journaled iterations newest-first and restores the first
        snapshot whose blocks all pass their checksums — a corrupt or
        missing block (metered as ``corrupt_blocks_detected``) falls
        back to the previous snapshot rather than ever surfacing bad
        tiles.  Returns ``None`` (fresh start) when nothing usable
        survives.
        """
        entries = journal.truncate_to_valid()
        if not entries or entries[0].get("kind") != "begin":
            return None
        begin = entries[0]
        if begin.get("fingerprint") != fingerprint:
            raise ResumeMismatchError(
                f"journal at {journal.path} records fingerprint "
                f"{begin.get('fingerprint')!r} but this solve has "
                f"{fingerprint!r} (different input/config); refusing to resume"
            )
        metrics = self.sc.metrics
        metrics.journal_entries_replayed += len(entries)
        iterations = [e for e in entries if e.get("kind") == "iteration"]
        for entry in reversed(iterations):
            k = entry["k"]
            tiles = []
            try:
                for i in range(nt):
                    for j in range(nt):
                        tiles.append(((i, j), store.get(("snap", k, i, j))))
            except (BlockNotFoundError, CorruptBlockError):
                continue
            metrics.resumed_from_iteration = k
            return tiles, k + 1, k
        return None

    # ------------------------------------------------------------------
    # setup / teardown
    # ------------------------------------------------------------------
    def _initial_tiles(self, table: np.ndarray, bounds: list[int], nt: int):
        tiles = []
        for i in range(nt):
            for j in range(nt):
                tile = np.ascontiguousarray(
                    table[bounds[i] : bounds[i + 1], bounds[j] : bounds[j + 1]],
                    dtype=self.spec.dtype,
                )
                tiles.append(((i, j), tile))
        return tiles

    def _assemble(self, dp, bounds: list[int], n: int, dtype) -> np.ndarray:
        out = np.empty((n, n), dtype=dtype)
        for (i, j), tile in dp.collect():
            out[bounds[i] : bounds[i + 1], bounds[j] : bounds[j + 1]] = tile
        return out

    # ------------------------------------------------------------------
    # kernel wrappers (closure-captured into tasks)
    # ------------------------------------------------------------------
    def _offload_blob(self) -> bytes | None:
        """Pickled kernel for worker processes (None if unpicklable)."""
        if self._kernel_blob is False:
            try:
                self._kernel_blob = pickle.dumps(self.kernel, protocol=5)
            except Exception:
                self._kernel_blob = None
        return self._kernel_blob  # type: ignore[return-value]

    @contextlib.contextmanager
    def _task_stats(self):
        """A task-local stats sink (``None`` when stats are off).

        Kernels record into it lock-free; it is merged into the shared
        :class:`LockingKernelStats` once, on exit — whatever the task
        counted before failing included — so the lock is taken per task
        rather than per tile.
        """
        if self.stats is None:
            yield None
            return
        sink = KernelStats(keep_log=self.stats.keep_log)
        try:
            yield sink
        finally:
            self.stats.merge(sink)

    def _run_tile_batch(self, calls: list) -> list:
        """Update one task's tiles *without mutating* them; returns the
        updated arrays in call order.

        ``calls`` entries are ``(case, tile, u, v, w, gi0, gj0, gk0,
        n)`` (:mod:`repro.kernels.base`; ``u``/``v``/``w`` may be
        :data:`~repro.kernels.base.ALIAS_X`, "this operand is the tile
        itself").  Never mutating the input tiles is the retry-purity
        contract: a retried attempt must see pristine inputs.

        With a worker plane and a kernel that pickles, the whole list —
        stage A's single call included — goes to a worker in one
        round-trip; otherwise :func:`~repro.kernels.base.update_tiles`
        runs it here.  Both produce bit-identical arrays.  A
        :class:`PoisonTaskError` turns offload off for the rest of the
        solve and reruns the whole batch here, as Spark recomputes a
        failed task from lineage.  The task's kernel stats are merged
        into the shared sink once.
        """
        offload = self.sc.offload
        blob = (
            self._offload_blob()
            if offload is not None and not self._fell_back
            else None
        )
        with self._task_stats() as sink:
            if blob is not None:
                try:
                    outs = offload.run_kernel_batch(
                        blob, calls, want_stats=sink is not None
                    )
                except PoisonTaskError:
                    self._fall_back_to_threads()
                else:
                    for _out, stats in outs:
                        if stats is not None and sink is not None:
                            sink.merge(stats)
                    return [out for out, _stats in outs]
            return update_tiles(self.kernel, calls, sink)

    def _fall_back_to_threads(self) -> None:
        """Turn offload off for the rest of the solve, metered once even
        when several tasks catch poison at the same moment."""
        with self._fall_back_lock:
            if not self._fell_back:
                self._fell_back = True
                self.sc.metrics.backend_degradations += 1

    # ------------------------------------------------------------------
    # In-Memory strategy (Listing 1)
    # ------------------------------------------------------------------
    def _im_iteration(self, dp, k: int, bounds: list[int], nt: int, n: int):
        spec, part = self.spec, self.partitioner
        bs = b_range(spec, k, nt)
        cs = c_range(spec, k, nt)
        a_keys = frozenset({(k, k)})
        b_keys = frozenset((k, j) for j in bs)
        c_keys = frozenset((i, k) for i in cs)
        d_keys = frozenset((i, j) for i in cs for j in bs)
        batch = self._run_tile_batch
        a_call, bc_call, d_call = _call_builders(k, bounds, n)

        # ---- stage 1: kernel A on the pivot tile, with consumer copies
        needs_w = spec.needs_w

        # A fan-out shares one role tuple per tile across its consumers
        # (the shuffle sizes each distinct value once).
        def a_rec(kv):
            (key, tile) = kv
            (x,) = batch([a_call(tile)])
            out = [(key, ("x", x))]
            uw, vw = ("uw", x), ("vw", x)
            out.extend((bk_, uw) for bk_ in b_keys)
            out.extend((ck_, vw) for ck_ in c_keys)
            if needs_w:
                # Only GEPs whose f reads c[k,k] (e.g. GE) fan the pivot
                # out to every D consumer — the heavy pattern that makes
                # IM lose to CB on the GE benchmark (paper §V-C).
                w = ("w", x)
                out.extend((dk_, w) for dk_ in d_keys)
            return out

        a_out = (
            _selected(dp, a_keys)
            .flatMap(a_rec)
            .partitionBy(partitioner=part)
            .cache()
        )
        a_updated = _selected(a_out, a_keys, "untag")

        if not bs and not cs:
            untouched = _selected(dp, a_keys, "reject")
            return self.sc.union([untouched, a_updated]).partitionBy(partitioner=part)

        # ---- stage 2: kernels B and C, coupled with pivot copies.
        # One map_partitions over the coupled records: the partition's B
        # and C updates form a single kernel batch (one offload
        # round-trip on the process backend), then fan out the consumer
        # copies per record.
        def bc_part(it, _split):
            items = list(it)
            calls = [
                bc_call(key, roles["x"], roles["uw" if key[0] == k else "vw"])
                for key, roles in items
            ]
            out = []
            for (key, _roles), x in zip(items, batch(calls)):
                i, j = key
                out.append((key, ("x", x)))
                if i == k:
                    v = ("v", x)
                    out.extend(((ii, j), v) for ii in cs)
                else:
                    u = ("u", x)
                    out.extend(((i, jj), u) for jj in bs)
            return out

        bc_keys = b_keys | c_keys
        bc_in = self.sc.union(
            [_selected(dp, bc_keys, "tag"), _selected(a_out, bc_keys)]
        )
        bc_out = (
            bc_in.combineByKey(
                _role_create, _role_merge_value, _role_merge_combiners, part
            )
            .map_partitions(bc_part)
            .partitionBy(partitioner=part)
            .cache()
        )
        bc_updated = _selected(bc_out, bc_keys, "untag")

        # ---- stage 3: kernels D, coupled with U/V/W copies — the
        # dominant wave, fused per partition exactly like stage 2.
        def d_part(it, _split):
            items = list(it)
            calls = [
                d_call(key, roles["x"], roles["u"], roles["v"], roles.get("w"))
                for key, roles in items
            ]
            return [
                (key, x) for (key, _roles), x in zip(items, batch(calls))
            ]

        d_sources = [_selected(dp, d_keys, "tag"), _selected(bc_out, d_keys)]
        if needs_w:
            d_sources.insert(1, _selected(a_out, d_keys))
        d_in = self.sc.union(d_sources)
        d_updated = d_in.combineByKey(
            _role_create, _role_merge_value, _role_merge_combiners, part
        ).map_partitions(d_part)

        untouched = _selected(dp, a_keys | bc_keys | d_keys, "reject")
        return self.sc.union(
            [untouched, a_updated, bc_updated, d_updated]
        ).partitionBy(partitioner=part)

    # ------------------------------------------------------------------
    # Collect-Broadcast strategy (Listing 2) and its broadcast ablation
    # ------------------------------------------------------------------
    def _collect_iteration(
        self, dp, k: int, bounds: list[int], nt: int, n: int, operands
    ):
        """One CB-style iteration: pivot-generation tiles are collected
        to the driver, published through ``operands`` (shared storage
        for ``cb``, broadcast variables for ``bcast``) and read back by
        the consumer kernels instead of being shuffled."""
        publish_pivot, publish_band = operands
        spec, part = self.spec, self.partitioner
        tiles = updated_tiles(spec, k, nt)
        bc_keys = frozenset(tiles["B"] + tiles["C"])
        d_keys = frozenset(tiles["D"])
        batch = self._run_tile_batch
        a_call, bc_call, d_call = _call_builders(k, bounds, n)

        # ---- stage 1: kernel A; collect to the driver and publish
        def a_rec(tile):
            return batch([a_call(tile)])[0]

        a_block = dp.filter(lambda kv: kv[0] == (k, k)).mapValues(a_rec).cache()
        pivot = publish_pivot(a_block.collect()[0][1])

        if not bc_keys:
            untouched = dp.filter(lambda kv: kv[0] != (k, k))
            return self.sc.union([untouched, a_block]).partitionBy(partitioner=part)

        # ---- stage 2: kernels B and C, reading the published pivot;
        # the partition's updates form one kernel batch (the read per
        # record is kept so staging accounting and transient-fault
        # decisions stay per record).
        def bc_part(it, _split):
            items = list(it)
            calls = [bc_call(key, tile, pivot()) for key, tile in items]
            return [(key, x) for (key, _t), x in zip(items, batch(calls))]

        bc_blocks = (
            dp.filter(lambda kv: kv[0] in bc_keys).map_partitions(bc_part).cache()
        )
        band = publish_band(bc_blocks.collect())

        # ---- stage 3: kernels D, reading the published operands (lazy)
        def d_part(it, _split):
            items = list(it)
            calls = [
                d_call(
                    key, tile, band((key[0], k)), band((k, key[1])),
                    pivot() if spec.needs_w else None,
                )
                for key, tile in items
            ]
            return [(key, x) for (key, _t), x in zip(items, batch(calls))]

        d_blocks = dp.filter(lambda kv: kv[0] in d_keys).map_partitions(d_part)

        touched = {(k, k)} | bc_keys | d_keys
        untouched = dp.filter(lambda kv: kv[0] not in touched)
        return self.sc.union(
            [untouched, a_block, bc_blocks, d_blocks]
        ).partitionBy(partitioner=part)


def _storage_operands(sc: SparkleContext, k: int):
    """CB: iteration ``k``'s operands go through shared persistent
    storage.  Each publisher returns the reader consumer tasks call."""
    storage = sc.shared_storage

    def publish_pivot(tile):
        storage.put(("pivot", k), tile)
        return lambda: storage.get(("pivot", k))

    def publish_band(blocks: list):
        for key, tile in blocks:
            storage.put(("bc", k, key), tile)
        return lambda key: storage.get(("bc", k, key))

    return publish_pivot, publish_band


def _broadcast_operands(sc: SparkleContext, k: int):
    """bcast (ablation): the same operands as two broadcast variables."""

    def publish_pivot(tile):
        pivot_bc = sc.broadcast(tile)
        return lambda: pivot_bc.value

    def publish_band(blocks: list):
        band_bc = sc.broadcast(dict(blocks))
        return lambda key: band_bc.value[key]

    return publish_pivot, publish_band


_OPERANDS = {"cb": _storage_operands, "bcast": _broadcast_operands}


def _call_builders(k: int, bounds: list[int], n: int):
    """Iteration ``k``'s ``_run_tile_batch`` entries, one builder per
    kernel case — the single place every strategy's calls are shaped."""
    gk0 = bounds[k]

    def a_call(tile) -> tuple:
        return ("A", tile, ALIAS_X, ALIAS_X, ALIAS_X, gk0, gk0, gk0, n)

    def bc_call(key, tile, pivot) -> tuple:
        i, j = key
        if i == k:  # B: pivot row; V aliases X
            return ("B", tile, pivot, ALIAS_X, pivot, gk0, bounds[j], gk0, n)
        # C: pivot column; U aliases X
        return ("C", tile, ALIAS_X, pivot, pivot, bounds[i], gk0, gk0, n)

    def d_call(key, tile, u, v, w) -> tuple:
        return ("D", tile, u, v, w, bounds[key[0]], bounds[key[1]], gk0, n)

    return a_call, bc_call, d_call


def _drain_iterator(it) -> int:
    """Materialize a partition (the degradation path's pressure probe)."""
    n = 0
    for _ in it:
        n += 1
    return n


# ----------------------------------------------------------------------
# IM selections
# ----------------------------------------------------------------------
#: A partition's records by key, one comprehension each: ``select`` keeps
#: the records whose key is in ``keys``, ``tag`` keeps them with the tile
#: tagged as the ``("x", tile)`` role a combine couples, ``untag`` keeps
#: them with a ``(role, tile)`` value cut back to its tile, and
#: ``reject`` keeps the records whose key is *not* in ``keys``.
_SELECTIONS = {
    "select": lambda it, keys: [kv for kv in it if kv[0] in keys],
    "tag": lambda it, keys: [(key, ("x", tile)) for key, tile in it if key in keys],
    "untag": lambda it, keys: [(key, rv[1]) for key, rv in it if key in keys],
    "reject": lambda it, keys: [kv for kv in it if kv[0] not in keys],
}


def _selected(rdd, keys: frozenset, how: str = "select"):
    """``rdd`` narrowed by one :data:`_SELECTIONS` pass per partition
    (partitioning preserved)."""
    pick = _SELECTIONS[how]
    return rdd.map_partitions(
        lambda it, _split: pick(it, keys), preserves_partitioning=True
    )


# ----------------------------------------------------------------------
# combineByKey role aggregation
# ----------------------------------------------------------------------
def _role_create(rv):
    role, arr = rv
    return {role: arr}


def _role_merge_value(acc, rv):
    role, arr = rv
    acc[role] = arr
    return acc


def _role_merge_combiners(a, b):
    a.update(b)
    return a
