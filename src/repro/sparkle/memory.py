"""Unified memory governor: byte-accounted execution/storage budgeting.

The paper's headline failure mode (§IV-C, §V) is memory exhaustion: the
In-Memory strategy materializes up to three copies of every tile through
its wide transformations and stops scaling once that working set
outgrows executor memory, while Collect-Broadcast survives by staging
pivot tiles in shared storage.  :class:`MemoryManager` is the third leg
of the robustness story: a Spark-style unified memory manager that lets
a budgeted run *complete*, via spill-to-disk and scheduler backpressure,
bit-identical to an unbudgeted one.

Every context has one.  Without a budget it is *unbounded*
(:attr:`MemoryManager.bounded` is False): the same ledgers, but every
reservation fits, pressure stays ``ok`` and admission never waits — so
the shuffle, the block cache and the service cache have one
reserve-then-store path, and whether a budget exists is known here and
nowhere else.

Design (mirroring Spark's ``UnifiedMemoryManager``):

* one byte budget is shared by two pools — **execution** (shuffle
  staging buffers) and **storage** (cached RDD partitions) — with
  per-owner ledgers (simulated executor id, or ``"driver"``) so reports
  can attribute pressure;
* :meth:`reserve` / :meth:`release` are the only accounting mutations;
  a failed reserve never blocks — the caller reacts by spilling
  (:class:`~.storage.BlockManager`, :class:`~.shuffle.ShuffleManager`)
  or queueing (the scheduler's admission control);
* **deadlock-free grants**: :meth:`admit_task` always grants a task's
  first reservation — when no other task holds admission memory the
  grant succeeds regardless of the budget, so at least one task is
  always runnable and every queued task eventually wakes;
* three **pressure levels** — ``ok`` / ``pressured`` / ``critical`` —
  derived from live/budget occupancy; every level change is appended to
  ``EngineMetrics.pressure_transitions`` (a deterministic trace under
  the chaos plane's serialized-task contract);
* the budget can shrink mid-run (:meth:`squeeze`) — the ``mem_squeeze``
  chaos kind uses this to model a cluster losing memory headroom under
  the seeded-determinism contract.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Callable

from .chaos import CURRENT_TASK
from .metrics import EngineMetrics

__all__ = [
    "MemoryManager",
    "PRESSURE_OK",
    "PRESSURE_PRESSURED",
    "PRESSURE_CRITICAL",
]

PRESSURE_OK = "ok"
PRESSURE_PRESSURED = "pressured"
PRESSURE_CRITICAL = "critical"

#: Pool names accepted by :meth:`MemoryManager.reserve` / ``release``.
POOLS = ("execution", "storage")

DRIVER_OWNER = "driver"


class MemoryManager:
    """Byte-accounted execution/storage budget for one simulated cluster.

    Parameters
    ----------
    budget_bytes:
        Total bytes shared by the execution and storage pools (the
        simulated cluster's aggregate usable memory); ``None`` for an
        unbounded manager, whose budget reads ``math.inf``.
    metrics:
        The :class:`~.metrics.EngineMetrics` that records pressure
        transitions, admission waits, squeezes and forced grants; a
        private one when omitted.
    task_quantum_bytes:
        Nominal execution reservation charged per admitted task (the
        scheduler's backpressure unit).  Defaults to ``budget // 8``
        (0 when unbounded: there is nothing to push back against).
    executor_resolver:
        ``f(partition) -> executor`` used to attribute task-side
        reservations to a simulated executor (the pool's
        ``executor_for``); without it task-side owners fall back to the
        partition id.
    """

    #: occupancy fractions at which pressure escalates (one value each in
    #: use, so class attributes rather than constructor options)
    pressured_at: float = 0.70
    critical_at: float = 0.90

    def __init__(
        self,
        budget_bytes: int | None,
        *,
        metrics=None,
        task_quantum_bytes: int | None = None,
        executor_resolver: Callable[[int], int] | None = None,
    ) -> None:
        if budget_bytes is not None and budget_bytes < 1:
            raise ValueError("budget_bytes must be >= 1")
        # An infinite budget makes "fits", the occupancy ratio and the
        # admission test come out right with no unbounded special case.
        budget = math.inf if budget_bytes is None else int(budget_bytes)
        self.initial_budget_bytes = budget
        self.budget_bytes = budget
        if task_quantum_bytes is None:
            task_quantum_bytes = max(1, budget // 8) if self.bounded else 0
        if self.bounded and task_quantum_bytes < 1:
            raise ValueError("task_quantum_bytes must be >= 1")
        self.task_quantum_bytes = int(task_quantum_bytes)
        self.executor_resolver = executor_resolver
        self._metrics = metrics or EngineMetrics()
        self._cond = threading.Condition()
        # pool -> owner -> bytes
        self._ledger: dict[str, dict[Any, int]] = {p: {} for p in POOLS}
        self._pool_live: dict[str, int] = {p: 0 for p in POOLS}
        self._pool_peak: dict[str, int] = {p: 0 for p in POOLS}
        self._live = 0
        self._admitted_tasks = 0
        self._level = PRESSURE_OK
        self._critical_seen = False
        self._squeeze_listeners: list[Callable[[int], None]] = []
        # tenant quota overlay: attribution on top of the pool ledgers,
        # not a third pool — tenant bytes are already accounted in
        # execution/storage by their real owners
        self._tenant_quota: dict[str, int] = {}
        self._tenant_held: dict[str, int] = {}

    @property
    def bounded(self) -> bool:
        """Whether a byte budget exists.

        The one question code outside this module may ask about the
        budget — to create a spill store, consult the chaos
        ``mem_squeeze``, run the degrade probe job or print the budget.
        Everything else (reserve, pressure, admission, tenant overlay)
        is called unconditionally.
        """
        return self.budget_bytes != math.inf

    # ------------------------------------------------------------------
    # owner attribution
    # ------------------------------------------------------------------
    def current_owner(self) -> Any:
        """Executor owning the calling thread's task (driver otherwise)."""
        task = CURRENT_TASK.get()
        if task is None:
            return DRIVER_OWNER
        if self.executor_resolver is not None:
            return self.executor_resolver(task.partition)
        return task.partition

    # ------------------------------------------------------------------
    # reserve / release
    # ------------------------------------------------------------------
    def reserve(
        self, pool: str, owner: Any, nbytes: int, *, force: bool = False
    ) -> bool:
        """Try to account ``nbytes`` against the budget; never blocks.

        Returns False when the bytes do not fit (the caller's cue to
        spill or queue).  ``force=True`` grants unconditionally — the
        deadlock-freedom escape hatch for first reservations, metered as
        ``forced_grants`` when it actually oversubscribes.

        Byte exactness holds across execution backends: a tile that
        came back pickled from a worker process reports the same
        ``ndarray.nbytes`` as its in-process original.
        """
        if pool not in POOLS:
            raise ValueError(f"unknown memory pool {pool!r}")
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        with self._cond:
            fits = self._live + nbytes <= self.budget_bytes
            if not fits and not force:
                return False
            if not fits:
                self._metrics.forced_grants += 1
            self._account_locked(pool, owner, nbytes)
            return True

    def release(self, pool: str, owner: Any, nbytes: int) -> None:
        """Return ``nbytes`` to the budget; wakes queued admissions."""
        if pool not in POOLS:
            raise ValueError(f"unknown memory pool {pool!r}")
        with self._cond:
            self._account_locked(pool, owner, -nbytes)
            self._cond.notify_all()

    def _account_locked(self, pool: str, owner: Any, delta: int) -> None:
        ledger = self._ledger[pool]
        held = ledger.get(owner, 0) + delta
        if held < 0:
            # Over-release is an accounting bug; clamp rather than let a
            # negative ledger mask real pressure.
            delta -= held
            held = 0
        if held == 0:
            ledger.pop(owner, None)
        else:
            ledger[owner] = held
        live = self._pool_live[pool] + delta
        self._pool_live[pool] = live
        if live > self._pool_peak[pool]:
            self._pool_peak[pool] = live
            setattr(self._metrics, f"{pool}_peak_bytes", live)
        self._live += delta
        self._update_level_locked()

    # ------------------------------------------------------------------
    # pressure
    # ------------------------------------------------------------------
    def _update_level_locked(self) -> None:
        ratio = self._live / self.budget_bytes
        if ratio >= self.critical_at:
            level = PRESSURE_CRITICAL
        elif ratio >= self.pressured_at:
            level = PRESSURE_PRESSURED
        else:
            level = PRESSURE_OK
        if level != self._level:
            self._metrics.pressure_transitions.append(f"{self._level}->{level}")
            self._level = level
        if level == PRESSURE_CRITICAL:
            self._critical_seen = True

    def pressure(self) -> str:
        """Current level: ``ok`` / ``pressured`` / ``critical``."""
        with self._cond:
            return self._level

    def critical_since_last_check(self) -> bool:
        """True if pressure touched ``critical`` since the last call.

        Pressure is spiky: under a tight budget every reservation that
        triggers spilling rides the occupancy up to critical and back
        down, so a point-in-time :meth:`pressure` probe at an iteration
        boundary can miss the episode entirely.  This latch is what the
        solver's degradation check polls — it clears on read.
        """
        with self._cond:
            seen = self._critical_seen or self._level == PRESSURE_CRITICAL
            self._critical_seen = False
            return seen

    # ------------------------------------------------------------------
    # scheduler admission control
    # ------------------------------------------------------------------
    def admit_task(self, owner: Any = "tasks") -> int:
        """Block until a task-admission quantum fits; returns the grant.

        Deadlock-free by construction: when no other task is admitted
        the grant is forced (a task's first reservation always
        succeeds), so at least one task always runs, finishes, and
        releases — every waiter eventually wakes.  Wait time and count
        are metered (``admission_waits`` / ``admission_wait_seconds``).
        A zero quantum (the unbounded manager's) reserves nothing, so it
        is admitted without touching the ledgers.
        """
        quantum = self.task_quantum_bytes
        if quantum == 0:
            return 0
        waited = False
        start = 0.0
        with self._cond:
            while True:
                first = self._admitted_tasks == 0
                if first or self._live + quantum <= self.budget_bytes:
                    break
                if not waited:
                    waited = True
                    start = time.perf_counter()
                    self._metrics.admission_waits += 1
                # Event-driven, not a poll: every release()/
                # finish_task()/squeeze() notifies this condition, so a
                # waiter wakes as soon as capacity can have changed.
                # The long timeout is purely a safety net against a
                # lost-wakeup bug, not a spin interval (asserted by the
                # no-spin regression test).
                self._cond.wait(timeout=5.0)
            if waited:
                self._metrics.admission_wait_seconds += (
                    time.perf_counter() - start
                )
            self._admitted_tasks += 1
            self._account_locked("execution", owner, quantum)
            return quantum

    def finish_task(self, grant: int, owner: Any = "tasks") -> None:
        """Release an admission grant from :meth:`admit_task`."""
        if grant == 0:
            return
        with self._cond:
            self._admitted_tasks -= 1
            self._account_locked("execution", owner, -grant)
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # tenant quota overlay
    # ------------------------------------------------------------------
    def set_tenant_quota(self, tenant: str, quota_bytes: int | None) -> None:
        """Cap a tenant's attributed bytes; ``None`` removes the cap.

        The overlay is attribution, not a pool: tenant-charged bytes are
        already accounted against execution/storage by their real owners
        (in-flight solve estimates, cached result payloads).  The quota
        only bounds how much of that attributed total one tenant may
        hold, so a breach refuses *that tenant's* next charge without
        touching anyone else's reservations.
        """
        with self._cond:
            if quota_bytes is None:
                self._tenant_quota.pop(tenant, None)
            else:
                if quota_bytes < 0:
                    raise ValueError("quota_bytes must be >= 0")
                self._tenant_quota[tenant] = int(quota_bytes)

    def charge_tenant(self, tenant: str, nbytes: int, *, force: bool = False) -> bool:
        """Attribute ``nbytes`` to a tenant; False if its quota is hit.

        Never blocks and never evicts: on a refused charge the caller
        raises a typed retryable error at the tenant that breached,
        leaving every other tenant's state alone.  ``force=True``
        bypasses the quota check (used when refusing would wedge an
        already-admitted operation).
        """
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        with self._cond:
            held = self._tenant_held.get(tenant, 0)
            quota = self._tenant_quota.get(tenant)
            if not force and quota is not None and held + nbytes > quota:
                return False
            if nbytes:
                self._tenant_held[tenant] = held + nbytes
            return True

    def release_tenant(self, tenant: str, nbytes: int) -> None:
        """Return attributed bytes; clamps over-release like the ledgers."""
        with self._cond:
            held = self._tenant_held.get(tenant, 0) - nbytes
            if held <= 0:
                self._tenant_held.pop(tenant, None)
            else:
                self._tenant_held[tenant] = held

    def tenant_usage(self) -> dict[str, dict[str, int | None]]:
        """Per-tenant held/quota snapshot (union of both maps)."""
        with self._cond:
            tenants = set(self._tenant_held) | set(self._tenant_quota)
            return {
                t: {
                    "held_bytes": self._tenant_held.get(t, 0),
                    "quota_bytes": self._tenant_quota.get(t),
                }
                for t in sorted(tenants)
            }

    # ------------------------------------------------------------------
    # chaos: budget squeeze
    # ------------------------------------------------------------------
    def squeeze(self, factor: float) -> int:
        """Shrink the budget to ``factor`` of its current value.

        Used by the ``mem_squeeze`` chaos kind; the budget never drops
        below one task quantum so admission stays live.  Returns the new
        budget and re-derives the pressure level (which may transition).
        A no-op on an unbounded manager.
        """
        if not 0.0 < factor <= 1.0:
            raise ValueError("squeeze factor must be in (0, 1]")
        if not self.bounded:
            return self.budget_bytes
        with self._cond:
            floor = self.task_quantum_bytes
            self.budget_bytes = max(floor, int(self.budget_bytes * factor))
            self._metrics.mem_squeezes += 1
            self._update_level_locked()
            self._cond.notify_all()
            new_budget = self.budget_bytes
        # Listeners run OUTSIDE the condition: an evicting listener (the
        # service result cache) calls back into release(), which takes
        # the same lock — calling it under the lock would deadlock.
        for listener in list(self._squeeze_listeners):
            listener(new_budget)
        return new_budget

    def add_squeeze_listener(self, fn: Callable[[int], None]) -> None:
        """Register ``fn(new_budget_bytes)`` to run after every squeeze.

        Used by caches holding budget-charged bytes (the solver
        service's result cache) to shed entries when the budget shrinks
        under them, instead of serving from an oversubscribed pool.
        """
        with self._cond:
            self._squeeze_listeners.append(fn)

    def remove_squeeze_listener(self, fn: Callable[[int], None]) -> None:
        with self._cond:
            try:
                self._squeeze_listeners.remove(fn)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def live_bytes(self) -> int:
        with self._cond:
            return self._live

    def usage(self) -> dict[str, Any]:
        """Snapshot for reports: budget, pools, per-owner ledgers."""
        with self._cond:
            return {
                "budget_bytes": self.budget_bytes,
                "initial_budget_bytes": self.initial_budget_bytes,
                "live_bytes": self._live,
                "level": self._level,
                "execution_bytes": self._pool_live["execution"],
                "storage_bytes": self._pool_live["storage"],
                "execution_peak_bytes": self._pool_peak["execution"],
                "storage_peak_bytes": self._pool_peak["storage"],
                "by_owner": {
                    pool: dict(ledger)
                    for pool, ledger in self._ledger.items()
                },
                "admitted_tasks": self._admitted_tasks,
                "tenants": {
                    t: {
                        "held_bytes": self._tenant_held.get(t, 0),
                        "quota_bytes": self._tenant_quota.get(t),
                    }
                    for t in sorted(
                        set(self._tenant_held) | set(self._tenant_quota)
                    )
                },
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        u = self.usage()
        return (
            f"MemoryManager({u['live_bytes']}/{u['budget_bytes']} B, "
            f"{u['level']})"
        )
