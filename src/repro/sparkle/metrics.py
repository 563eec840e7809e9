"""Execution metrics and the trace consumed by the cluster cost model.

Everything the paper reasons about quantitatively — stage counts, tasks
per stage, shuffle volume of wide transformations, collect/broadcast
volume of the CB strategy, storage staging — is recorded here as the
engine runs.  The cost model (:mod:`repro.cluster.costmodel`) replays a
:class:`JobTrace` against a :class:`~repro.cluster.config.ClusterConfig`
to produce simulated wall-clock.

A counter is written down once: :func:`counter` declares its name,
default, group and unit as a dataclass field, and ``summary()`` /
``summary(group)`` / ``schema(group)`` of :class:`EngineMetrics` and
:class:`ServiceMetrics` are generated from those declarations in
declaration order.  Every component that counts takes a registry or
builds a private one (``metrics or EngineMetrics()``), so no increment
is guarded by a presence check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import Any, Callable, ClassVar, NamedTuple

__all__ = [
    "TaskRecord",
    "StageRecord",
    "JobTrace",
    "EngineMetrics",
    "ServiceMetrics",
]


@dataclass
class TaskRecord:
    """One task attempt (final, successful one per partition)."""

    partition: int
    executor: int
    attempts: int = 1
    records_out: int = 0
    shuffle_bytes_written: int = 0
    shuffle_bytes_read: int = 0
    #: portion of shuffle_bytes_read fetched from a different executor
    #: (crosses the simulated network; the partitioner-locality metric)
    shuffle_bytes_remote: int = 0
    wall_seconds: float = 0.0
    #: perf_counter timestamps of the winning attempt's span
    start_ts: float = 0.0
    end_ts: float = 0.0


@dataclass
class StageRecord:
    """One executed stage (shuffle-map or result)."""

    stage_id: int
    kind: str  # "shuffle-map" | "result"
    rdd_id: int
    num_tasks: int
    tasks: list[TaskRecord] = field(default_factory=list)

    @property
    def shuffle_bytes_written(self) -> int:
        return sum(t.shuffle_bytes_written for t in self.tasks)

    @property
    def shuffle_bytes_read(self) -> int:
        return sum(t.shuffle_bytes_read for t in self.tasks)

    @property
    def shuffle_bytes_remote(self) -> int:
        return sum(t.shuffle_bytes_remote for t in self.tasks)

    @property
    def total_attempts(self) -> int:
        return sum(t.attempts for t in self.tasks)


@dataclass
class JobTrace:
    """All stages of one action, in execution order."""

    job_id: int
    action: str
    stages: list[StageRecord] = field(default_factory=list)
    collect_bytes: int = 0

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def num_tasks(self) -> int:
        return sum(s.num_tasks for s in self.stages)

    @property
    def shuffle_bytes(self) -> int:
        return sum(s.shuffle_bytes_written for s in self.stages)

    @property
    def shuffle_bytes_remote(self) -> int:
        return sum(s.shuffle_bytes_remote for s in self.stages)


class Counter(NamedTuple):
    """One reported entry: its ``summary()`` key, group, unit and reader."""

    key: str
    group: str
    #: ``"B"`` bytes, ``"s"`` seconds, ``""`` a plain count or a label
    unit: str
    read: Callable[[Any], Any]


def counter(
    group: str,
    unit: str = "",
    default: Any = 0,
    *,
    key: str | None = None,
    view: Callable[[Any], Any] | None = None,
):
    """Declare a counter field: default, group, unit — the one place.

    ``default`` may be a factory (``list``, ``dict``).  ``key`` renames
    the entry in ``summary()`` and ``view`` maps the stored value to the
    reported one; seconds report rounded to 6 places and lists as a copy.
    """
    if view is None and unit == "s":
        view = lambda seconds: round(seconds, 6)
    elif view is None:
        view = list if default is list else lambda value: value
    meta = {"group": group, "unit": unit, "key": key, "view": view}
    if callable(default):
        return field(default_factory=default, metadata=meta)
    return field(default=default, metadata=meta)


def _reader(name: str, view: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda metrics: view(getattr(metrics, name))


class _Registry:
    """``schema()`` / ``summary()`` generated from :func:`counter` fields."""

    #: computed entries, ``(field they follow in the flat view, Counter)``
    _DERIVED: ClassVar[tuple[tuple[str, Counter], ...]] = ()

    @classmethod
    @functools.cache
    def schema(cls, group: str | None = None) -> tuple[Counter, ...]:
        """Reported entries in order; one group's when ``group`` is given."""
        out: list[Counter] = []
        for f in fields(cls):
            meta = f.metadata
            if meta:  # a field without metadata is a trace, not a counter
                read = _reader(f.name, meta["view"])
                out.append(
                    Counter(meta["key"] or f.name, meta["group"], meta["unit"], read)
                )
            out.extend(c for after, c in cls._DERIVED if after == f.name)
        return tuple(c for c in out if group is None or c.group == group)

    def summary(self, group: str | None = None) -> dict[str, Any]:
        """Flat counter view (tests, reports, bench); one group's if named."""
        return {c.key: c.read(self) for c in self.schema(group)}


@dataclass
class EngineMetrics(_Registry):
    """Context-lifetime counters plus the per-job traces.

    Groups: ``plan`` (the plan-shape header derived from the job traces,
    then broadcast / shared-storage staging), ``recovery``,
    ``durability``, ``memory``, ``data_plane``, ``supervision``.
    """

    # ---- plan shape (what the cost model prices) -----------------------
    #: the per-job traces; reported as their count, followed by the
    #: header entries ``_DERIVED`` computes from them
    jobs: list[JobTrace] = counter("plan", default=list, view=len)
    broadcast_bytes: int = counter("plan", "B")
    storage_bytes_written: int = counter("plan", "B")
    storage_bytes_read: int = counter("plan", "B")
    # ---- recovery counters (chaos / fault tolerance) ------------------
    tasks_retried: int = counter("recovery")
    #: map partitions recomputed from lineage after their shuffle outputs
    #: were dropped by an executor loss (the §II recovery story, measured)
    partitions_recomputed: int = counter("recovery")
    executor_loss_events: int = counter("recovery")
    transient_io_failures: int = counter("recovery")
    #: writes that landed truncated and were caught by read-back verify
    torn_writes_detected: int = counter("recovery")
    #: checksummed reads that caught silent corruption (bitrot/tamper)
    corrupt_blocks_detected: int = counter("recovery")
    # ---- durability counters (checkpoint store / solve journal) -------
    durable_puts: int = counter("durability")
    durable_gets: int = counter("durability")
    durable_bytes_written: int = counter("durability", "B")
    durable_bytes_read: int = counter("durability", "B")
    journal_appends: int = counter("durability")
    #: journal records replayed by a ``--resume`` recovery
    journal_entries_replayed: int = counter("durability")
    #: outer iteration a resumed solve restarted *after* (None = fresh)
    resumed_from_iteration: int | None = counter("durability", default=None)
    # ---- memory governor counters (unified budget / spill) ------------
    #: bytes written to the spill store (cache blocks + shuffle buckets)
    spill_bytes_written: int = counter("memory", "B")
    #: bytes read back from the spill store
    spill_bytes_read: int = counter("memory", "B")
    #: cached RDD partitions evicted to disk instead of dropped
    blocks_spilled: int = counter("memory")
    #: staged shuffle map outputs moved to disk under memory pressure
    shuffle_blocks_spilled: int = counter("memory")
    #: successful reads served from spilled blocks
    spill_reads: int = counter("memory")
    #: task launches the scheduler queued because a reservation failed
    admission_waits: int = counter("memory")
    admission_wait_seconds: float = counter("memory", "s", 0.0)
    #: pressure-level changes in order, e.g. ``["ok->pressured", ...]``
    #: (deterministic per chaos seed under serialized tasks)
    pressure_transitions: list[str] = counter("memory", default=list)
    #: ``mem_squeeze`` chaos injections applied to the budget
    mem_squeezes: int = counter("memory")
    #: IM→CB strategy switches taken under critical pressure
    strategy_degradations: int = counter("memory")
    #: reservations granted past the budget (deadlock-freedom escape)
    forced_grants: int = counter("memory")
    #: aborted shuffle-map stages whose partial outputs were reclaimed
    shuffle_partial_cleanups: int = counter("memory")
    #: high-water marks of the governor's two pools (live bytes)
    execution_peak_bytes: int = counter("memory", "B")
    storage_peak_bytes: int = counter("memory", "B")
    #: sealed shuffles released / sealed persisted RDDs evicted when the
    #: last stage of a job that read them completed
    shuffles_released: int = counter("memory")
    cached_rdds_retired: int = counter("memory")
    # ---- data plane counters (execution backend / kernel offload) -----
    #: which execution backend the context ran (``threads``/``processes``)
    backend: str = counter("data_plane", default="threads")
    #: kernel tile updates offloaded to worker processes
    kernel_offloads: int = counter("data_plane")
    #: driver↔worker IPC round-trips made by kernel offload: one per
    #: kernel-running task — THE multicore-gap metric (the tile updates
    #: those round-trips carried are ``kernel_offloads``)
    dispatch_round_trips: int = counter("data_plane")
    #: ``kernel.run`` calls the workers made for those tile updates: a
    #: stack is one run, as on the thread path
    worker_kernel_runs: int = counter("data_plane")
    # ---- supervision counters (worker liveness / crash protocol) -------
    #: workers whose heartbeat went silent past the watchdog threshold
    heartbeats_missed: int = counter("supervision")
    #: worker processes started by pool respawns (crash recovery)
    workers_respawned: int = counter("supervision")
    #: worker-process deaths observed mid-kernel (BrokenProcessPool)
    worker_crashes: int = counter("supervision")
    #: supervised kernel calls that ran past their task deadline
    deadlines_exceeded: int = counter("supervision")
    #: tasks quarantined after killing ``max_task_failures`` fresh workers
    poison_tasks: int = counter("supervision")
    #: solves that fell back from processes to threads after a poison
    #: quarantine (once per solve)
    backend_degradations: int = counter("supervision")
    # ---- plan shape, continued: event counts of the staging volumes ----
    # (declared last so the flat view keeps the key order reports pin)
    broadcast_count: int = counter("plan")
    storage_puts: int = counter("plan")
    storage_gets: int = counter("plan")

    def new_job(self, action: str) -> JobTrace:
        trace = JobTrace(job_id=len(self.jobs), action=action)
        self.jobs.append(trace)
        return trace

    @property
    def total_shuffle_bytes(self) -> int:
        return sum(j.shuffle_bytes for j in self.jobs)

    @property
    def total_remote_shuffle_bytes(self) -> int:
        return sum(j.shuffle_bytes_remote for j in self.jobs)

    @property
    def total_stages(self) -> int:
        return sum(j.num_stages for j in self.jobs)

    @property
    def total_tasks(self) -> int:
        return sum(j.num_tasks for j in self.jobs)

    @property
    def total_collect_bytes(self) -> int:
        return sum(j.collect_bytes for j in self.jobs)

    _DERIVED = tuple(
        ("jobs", Counter(key, "plan", unit, read))
        for key, unit, read in (
            ("stages", "", lambda m: m.total_stages),
            ("tasks", "", lambda m: m.total_tasks),
            ("shuffle_bytes", "B", lambda m: m.total_shuffle_bytes),
            ("remote_shuffle_bytes", "B", lambda m: m.total_remote_shuffle_bytes),
            ("collect_bytes", "B", lambda m: m.total_collect_bytes),
        )
    )


@dataclass
class ServiceMetrics(_Registry):
    """Request-plane counters for one :class:`~repro.service.SolverService`.

    Kept separate from :class:`EngineMetrics` deliberately: one engine
    context serves many requests, so engine counters are
    context-lifetime while these are service-lifetime — and the request
    state machine (DESIGN.md §15) is the thing being metered, not the
    engine underneath it.
    """

    # ---- admission -----------------------------------------------------
    requests_received: int = counter("admission")
    requests_admitted: int = counter("admission")
    #: admitted requests that waited in the bounded queue (depth > 0)
    requests_queued: int = counter("admission")
    #: requests refused at admission (queue full / critical pressure)
    requests_shed: int = counter("admission")
    #: requests refused because the service was draining for shutdown
    draining_sheds: int = counter("admission")
    # ---- completion ----------------------------------------------------
    requests_completed: int = counter("completion")
    #: requests that returned a typed error (excluding sheds)
    requests_failed: int = counter("completion")
    #: requests cancelled by their per-request deadline
    deadline_cancelled: int = counter("completion")
    # ---- single-flight / cache -----------------------------------------
    #: duplicate concurrent requests coalesced onto an in-flight solve
    single_flight_coalesced: int = counter("cache")
    cache_hits: int = counter("cache")
    cache_misses: int = counter("cache")
    #: entries dropped by LRU capacity pressure
    cache_evictions: int = counter("cache")
    #: entries dropped because a memory squeeze reclaimed their bytes
    cache_invalidations: int = counter("cache")
    #: cached payloads that failed their checksum on read (never served)
    cache_integrity_failures: int = counter("cache")
    # ---- engine passes / retry -------------------------------------------
    #: actual ``GepSparkSolver.solve`` invocations (one per coalesced
    #: flight attempt; THE single-flight assertion counter)
    engine_passes: int = counter("engine")
    #: service-level retries of a failed engine pass (run at once)
    retries: int = counter("engine")
    # ---- request journal / hot restart (DESIGN.md §16) -------------------
    #: admissions fsync-appended to the durable request WAL
    journal_admits: int = counter("journal")
    #: settlement records appended (completed / failed / deadline)
    journal_settles: int = counter("journal")
    #: torn/garbage WAL tail records truncated when the journal opened
    journal_torn_records: int = counter("journal")
    #: incomplete WAL entries re-submitted through admission by resume()
    journal_replayed: int = counter("journal")
    #: WAL checkpoint/compaction passes (drain or stop)
    journal_compactions: int = counter("journal")
    #: records dropped by compaction (settled + superseded history)
    journal_records_compacted: int = counter("journal")
    #: cache entries rebuilt from the durable result spool on resume
    results_rehydrated: int = counter("journal")
    #: reconnecting clients served a prior settlement by idempotency key
    #: (no admission, no engine pass)
    idempotent_replays: int = counter("journal")
    #: submissions whose idempotency key the WAL already named in-flight
    #: (a client retrying across a restart) — coalesced, not re-admitted
    resume_coalesced: int = counter("journal")
    # ---- socket plane -----------------------------------------------------
    #: frames refused before payload read (length above the cap)
    frames_rejected: int = counter("socket")
    #: per-connection client failures (vanished mid-frame / mid-reply)
    client_disconnects: int = counter("socket")
    #: stale socket files (dead server, no listener) reclaimed on bind
    stale_sockets_reclaimed: int = counter("socket")
    #: wire-request input tables generated from their seed: one per
    #: miss, none for a hit the cache resolves by the request's identity
    inputs_built: int = counter("socket")
    # ---- tenant isolation / brownout (DESIGN.md §18) ----------------------
    #: admissions refused because the tenant's byte quota was hit
    quota_rejections: int = counter("tenancy")
    #: admissions refused by a tenant's token-bucket rate limit
    rate_limited: int = counter("tenancy")
    #: requests shed at the ladder's ``shed`` rung (lowest-weight tenants)
    brownout_sheds: int = counter("tenancy")
    #: engine passes degraded IM→CB by the ladder (rung >= degrade)
    brownout_degrades: int = counter("tenancy")
    #: total ladder transitions (monotone; the summary surface)
    brownout_transition_count: int = counter("tenancy")
    #: current ladder rung name (``normal``/``degrade``/``shed``)
    brownout_level: str = counter("tenancy", default="normal")
    #: transition strings (``"normal->degrade"``, …) since the last drain —
    #: clear-on-read like ``MemoryManager.critical_since_last_check``, so
    #: spiky episodes between two probes are never missed; a trace, not a
    #: counter: ``brownout_transition_count`` is what ``summary()`` reports
    brownout_transitions: list[str] = field(default_factory=list)

    def drain_brownout_transitions(self) -> list[str]:
        """Return and clear the transition trace (clear-on-read latch).

        Callers hold the service's metrics lock, like every other
        mutation on this class.
        """
        out = list(self.brownout_transitions)
        self.brownout_transitions.clear()
        return out

    # ---- per-tenant accounting --------------------------------------------
    #: ``tenant -> {"requests", "sheds", "cache_hits", "completed",
    #: "engine_passes", "quota_rejections", "rate_limited"}``; only
    #: requests that carry a tenant are metered here (totals above cover
    #: everyone)
    per_tenant: dict[str, dict[str, int]] = counter(
        "tenancy",
        default=dict,
        view=lambda per: {t: dict(c) for t, c in sorted(per.items())},
    )

    _TENANT_EVENTS = (
        "requests",
        "sheds",
        "cache_hits",
        "completed",
        "engine_passes",
        "quota_rejections",
        "rate_limited",
    )

    def tenant_event(self, tenant: str | None, event: str) -> None:
        """Count one per-tenant event; no-op for anonymous requests.

        Callers hold the service's metrics lock, like every other
        counter mutation on this class.
        """
        if not tenant:
            return
        counters = self.per_tenant.setdefault(
            tenant, {e: 0 for e in self._TENANT_EVENTS}
        )
        counters[event] += 1

    def _cache_hit_rate(self) -> float | None:
        looked_up = self.cache_hits + self.cache_misses
        return round(self.cache_hits / looked_up, 6) if looked_up else None

    _DERIVED = (
        ("cache_misses", Counter("cache_hit_rate", "cache", "", _cache_hit_rate)),
    )
