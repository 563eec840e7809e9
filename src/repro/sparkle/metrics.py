"""Execution metrics and the trace consumed by the cluster cost model.

Everything the paper reasons about quantitatively — stage counts, tasks
per stage, shuffle volume of wide transformations, collect/broadcast
volume of the CB strategy, storage staging — is recorded here as the
engine runs.  The cost model (:mod:`repro.cluster.costmodel`) replays a
:class:`JobTrace` against a :class:`~repro.cluster.config.ClusterConfig`
to produce simulated wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

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
    #: total scheduler backoff slept before the winning attempt
    backoff_seconds: float = 0.0
    #: True when a speculative copy beat a straggling original attempt
    speculative_win: bool = False


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

    @property
    def speculative_wins(self) -> int:
        return sum(1 for t in self.tasks if t.speculative_win)


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


@dataclass
class EngineMetrics:
    """Context-lifetime counters plus the per-job traces."""

    jobs: list[JobTrace] = field(default_factory=list)
    broadcast_bytes: int = 0
    broadcast_count: int = 0
    storage_bytes_written: int = 0
    storage_bytes_read: int = 0
    storage_puts: int = 0
    storage_gets: int = 0
    # ---- recovery counters (chaos / fault tolerance) ------------------
    tasks_retried: int = 0
    #: map partitions recomputed from lineage after their shuffle outputs
    #: were dropped by an executor loss (the §II recovery story, measured)
    partitions_recomputed: int = 0
    speculative_launched: int = 0
    speculative_wins: int = 0
    stragglers_cancelled: int = 0
    executor_loss_events: int = 0
    transient_io_failures: int = 0
    backoff_waits: int = 0
    backoff_seconds_total: float = 0.0
    blacklisted_executors: list[int] = field(default_factory=list)
    # ---- durability counters (checkpoint store / solve journal) -------
    durable_puts: int = 0
    durable_gets: int = 0
    durable_bytes_written: int = 0
    durable_bytes_read: int = 0
    #: writes that landed truncated and were caught by read-back verify
    torn_writes_detected: int = 0
    #: checksummed reads that caught silent corruption (bitrot/tamper)
    corrupt_blocks_detected: int = 0
    #: durable checkpoint blocks found corrupt and recomputed from lineage
    checkpoint_recomputes: int = 0
    #: SharedStorage memory misses served from the durable backing store
    storage_backing_reads: int = 0
    journal_appends: int = 0
    #: journal records replayed by a ``--resume`` recovery
    journal_entries_replayed: int = 0
    #: outer iteration a resumed solve restarted *after* (None = fresh)
    resumed_from_iteration: int | None = None
    # ---- memory governor counters (unified budget / spill) ------------
    #: bytes written to the spill store (cache blocks + shuffle buckets)
    spill_bytes_written: int = 0
    #: bytes read back from the spill store
    spill_bytes_read: int = 0
    #: cached RDD partitions evicted to disk instead of dropped
    blocks_spilled: int = 0
    #: staged shuffle map outputs moved to disk under memory pressure
    shuffle_blocks_spilled: int = 0
    #: successful reads served from spilled blocks
    spill_reads: int = 0
    #: task launches the scheduler queued because a reservation failed
    admission_waits: int = 0
    admission_wait_seconds: float = 0.0
    #: pressure-level changes in order, e.g. ``["ok->pressured", ...]``
    #: (deterministic per chaos seed under serialized tasks)
    pressure_transitions: list[str] = field(default_factory=list)
    #: ``mem_squeeze`` chaos injections applied to the budget
    mem_squeezes: int = 0
    #: IM→CB strategy switches taken under critical pressure
    strategy_degradations: int = 0
    #: reservations granted past the budget (deadlock-freedom escape)
    forced_grants: int = 0
    #: blacklist refusals that protected the last healthy executor
    last_executor_protected: int = 0
    #: aborted shuffle-map stages whose partial outputs were reclaimed
    shuffle_partial_cleanups: int = 0
    #: high-water marks of the governor's two pools (live bytes)
    execution_peak_bytes: int = 0
    storage_peak_bytes: int = 0
    #: sealed shuffles released / sealed persisted RDDs evicted when the
    #: last stage of a job that read them completed
    shuffles_released: int = 0
    cached_rdds_retired: int = 0
    # ---- data plane counters (execution backend / kernel offload) -----
    #: which execution backend the context ran (``threads``/``processes``)
    backend: str = "threads"
    #: kernel tile updates offloaded to worker processes
    kernel_offloads: int = 0
    #: driver↔worker IPC round-trips made by kernel offload: one per
    #: kernel-running task — THE multicore-gap metric (the tile updates
    #: those round-trips carried are ``kernel_offloads``)
    dispatch_round_trips: int = 0
    # ---- supervision counters (worker liveness / crash protocol) -------
    #: workers whose heartbeat went silent past the watchdog threshold
    heartbeats_missed: int = 0
    #: worker processes started by pool respawns (crash recovery)
    workers_respawned: int = 0
    #: worker-process deaths observed mid-kernel (BrokenProcessPool)
    worker_crashes: int = 0
    #: supervised kernel calls that ran past their task deadline
    deadlines_exceeded: int = 0
    #: tasks quarantined after killing ``max_task_failures`` fresh workers
    poison_tasks: int = 0
    #: processes→threads backend degradations taken under --degrade-on-crash
    backend_degradations: int = 0

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

    def recovery_summary(self) -> dict[str, Any]:
        """Fault-recovery counters only (the chaos-test/report surface).

        Quantifies recovery overhead the way the paper's §V reports
        execution failures: how much extra work (retries, recomputed
        lineage, speculative copies, backoff stalls) faults cost a run.
        """
        return {
            "tasks_retried": self.tasks_retried,
            "partitions_recomputed": self.partitions_recomputed,
            "speculative_launched": self.speculative_launched,
            "speculative_wins": self.speculative_wins,
            "stragglers_cancelled": self.stragglers_cancelled,
            "executor_loss_events": self.executor_loss_events,
            "transient_io_failures": self.transient_io_failures,
            "backoff_waits": self.backoff_waits,
            "backoff_seconds_total": round(self.backoff_seconds_total, 6),
            "executors_blacklisted": len(self.blacklisted_executors),
            "torn_writes_detected": self.torn_writes_detected,
            "corrupt_blocks_detected": self.corrupt_blocks_detected,
            "checkpoint_recomputes": self.checkpoint_recomputes,
            "storage_backing_reads": self.storage_backing_reads,
            "last_executor_protected": self.last_executor_protected,
        }

    def memory_summary(self) -> dict[str, Any]:
        """Memory-governor accounting for one run (spill/pressure view)."""
        return {
            "spill_bytes_written": self.spill_bytes_written,
            "spill_bytes_read": self.spill_bytes_read,
            "blocks_spilled": self.blocks_spilled,
            "shuffle_blocks_spilled": self.shuffle_blocks_spilled,
            "spill_reads": self.spill_reads,
            "admission_waits": self.admission_waits,
            "admission_wait_seconds": round(self.admission_wait_seconds, 6),
            "pressure_transitions": list(self.pressure_transitions),
            "mem_squeezes": self.mem_squeezes,
            "strategy_degradations": self.strategy_degradations,
            "forced_grants": self.forced_grants,
            "shuffle_partial_cleanups": self.shuffle_partial_cleanups,
            "execution_peak_bytes": self.execution_peak_bytes,
            "storage_peak_bytes": self.storage_peak_bytes,
            "shuffles_released": self.shuffles_released,
            "cached_rdds_retired": self.cached_rdds_retired,
        }

    def data_plane_summary(self) -> dict[str, Any]:
        """Backend / kernel-offload accounting for one run."""
        return {
            "backend": self.backend,
            "kernel_offloads": self.kernel_offloads,
            "dispatch_round_trips": self.dispatch_round_trips,
        }

    def supervision_summary(self) -> dict[str, Any]:
        """Worker-liveness / crash-protocol accounting for one run."""
        return {
            "heartbeats_missed": self.heartbeats_missed,
            "workers_respawned": self.workers_respawned,
            "worker_crashes": self.worker_crashes,
            "deadlines_exceeded": self.deadlines_exceeded,
            "poison_tasks": self.poison_tasks,
            "backend_degradations": self.backend_degradations,
        }

    def durability_summary(self) -> dict[str, Any]:
        """Journal/checkpoint-store accounting for one run."""
        return {
            "durable_puts": self.durable_puts,
            "durable_gets": self.durable_gets,
            "durable_bytes_written": self.durable_bytes_written,
            "durable_bytes_read": self.durable_bytes_read,
            "journal_appends": self.journal_appends,
            "journal_entries_replayed": self.journal_entries_replayed,
            "resumed_from_iteration": self.resumed_from_iteration,
        }

    def summary(self) -> dict[str, Any]:
        """Flat counter view used by tests and reports."""
        out = {
            "jobs": len(self.jobs),
            "stages": self.total_stages,
            "tasks": self.total_tasks,
            "shuffle_bytes": self.total_shuffle_bytes,
            "remote_shuffle_bytes": self.total_remote_shuffle_bytes,
            "collect_bytes": self.total_collect_bytes,
            "broadcast_bytes": self.broadcast_bytes,
            "storage_bytes_written": self.storage_bytes_written,
            "storage_bytes_read": self.storage_bytes_read,
        }
        out.update(self.recovery_summary())
        out.update(self.durability_summary())
        out.update(self.memory_summary())
        out.update(self.data_plane_summary())
        out.update(self.supervision_summary())
        return out


@dataclass
class ServiceMetrics:
    """Request-plane counters for one :class:`~repro.service.SolverService`.

    Kept separate from :class:`EngineMetrics` deliberately: one engine
    context serves many requests, so engine counters are
    context-lifetime while these are service-lifetime — and the request
    state machine (DESIGN.md §15) is the thing being metered, not the
    engine underneath it.
    """

    # ---- admission -----------------------------------------------------
    requests_received: int = 0
    requests_admitted: int = 0
    #: admitted requests that waited in the bounded queue (depth > 0)
    requests_queued: int = 0
    #: requests refused at admission (queue full / critical pressure)
    requests_shed: int = 0
    #: requests refused because the service was draining for shutdown
    draining_sheds: int = 0
    # ---- completion ----------------------------------------------------
    requests_completed: int = 0
    #: requests that returned a typed error (excluding sheds)
    requests_failed: int = 0
    #: requests cancelled by their per-request deadline
    deadline_cancelled: int = 0
    # ---- single-flight / cache -----------------------------------------
    #: duplicate concurrent requests coalesced onto an in-flight solve
    single_flight_coalesced: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: entries dropped by LRU capacity pressure
    cache_evictions: int = 0
    #: entries dropped because a memory squeeze reclaimed their bytes
    cache_invalidations: int = 0
    #: cached payloads that failed their checksum on read (never served)
    cache_integrity_failures: int = 0
    # ---- engine passes / retry / breaker --------------------------------
    #: actual ``GepSparkSolver.solve`` invocations (one per coalesced
    #: flight attempt; THE single-flight assertion counter)
    engine_passes: int = 0
    #: service-level retries of a failed engine pass (with backoff)
    retries: int = 0
    circuit_trips: int = 0
    #: engine passes run with kernel offload forced off by an open breaker
    circuit_failovers: int = 0
    circuit_half_opens: int = 0
    circuit_closes: int = 0
    # ---- request journal / hot restart (DESIGN.md §16) -------------------
    #: admissions fsync-appended to the durable request WAL
    journal_admits: int = 0
    #: settlement records appended (completed / failed / deadline)
    journal_settles: int = 0
    #: torn/garbage WAL tail records truncated when the journal opened
    journal_torn_records: int = 0
    #: incomplete WAL entries re-submitted through admission by resume()
    journal_replayed: int = 0
    #: WAL checkpoint/compaction passes (drain or stop)
    journal_compactions: int = 0
    #: records dropped by compaction (settled + superseded history)
    journal_records_compacted: int = 0
    #: cache entries rebuilt from the durable result spool on resume
    results_rehydrated: int = 0
    #: reconnecting clients served a prior settlement by idempotency key
    #: (no admission, no engine pass)
    idempotent_replays: int = 0
    #: submissions whose idempotency key the WAL already named in-flight
    #: (a client retrying across a restart) — coalesced, not re-admitted
    resume_coalesced: int = 0
    # ---- socket plane -----------------------------------------------------
    #: frames refused before payload read (length above the cap)
    frames_rejected: int = 0
    #: per-connection client failures (vanished mid-frame / mid-reply)
    client_disconnects: int = 0
    #: stale socket files (dead server, no listener) reclaimed on bind
    stale_sockets_reclaimed: int = 0
    # ---- tenant isolation / brownout (DESIGN.md §18) ----------------------
    #: admissions refused because the tenant's byte quota was hit
    quota_rejections: int = 0
    #: admissions refused by a tenant's token-bucket rate limit
    rate_limited: int = 0
    #: requests shed at the ladder's ``shed`` rung (lowest-weight tenants)
    brownout_sheds: int = 0
    #: engine passes degraded IM→CB by the ladder (rung >= degrade)
    brownout_degrades: int = 0
    #: total ladder transitions (monotone; the summary surface)
    brownout_transition_count: int = 0
    #: current ladder rung name (``normal``/``degrade``/``shed``)
    brownout_level: str = "normal"
    #: transition strings (``"normal->degrade"``, …) since the last drain —
    #: clear-on-read like ``MemoryManager.critical_since_last_check``, so
    #: spiky episodes between two probes are never missed
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
    per_tenant: dict[str, dict[str, int]] = field(default_factory=dict)

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

    def summary(self) -> dict[str, Any]:
        """Flat counter view (the ``repro serve`` / bench surface)."""
        looked_up = self.cache_hits + self.cache_misses
        return {
            "requests_received": self.requests_received,
            "requests_admitted": self.requests_admitted,
            "requests_queued": self.requests_queued,
            "requests_shed": self.requests_shed,
            "draining_sheds": self.draining_sheds,
            "requests_completed": self.requests_completed,
            "requests_failed": self.requests_failed,
            "deadline_cancelled": self.deadline_cancelled,
            "single_flight_coalesced": self.single_flight_coalesced,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": (
                round(self.cache_hits / looked_up, 6) if looked_up else None
            ),
            "cache_evictions": self.cache_evictions,
            "cache_invalidations": self.cache_invalidations,
            "cache_integrity_failures": self.cache_integrity_failures,
            "engine_passes": self.engine_passes,
            "retries": self.retries,
            "circuit_trips": self.circuit_trips,
            "circuit_failovers": self.circuit_failovers,
            "circuit_half_opens": self.circuit_half_opens,
            "circuit_closes": self.circuit_closes,
            "journal_admits": self.journal_admits,
            "journal_settles": self.journal_settles,
            "journal_torn_records": self.journal_torn_records,
            "journal_replayed": self.journal_replayed,
            "journal_compactions": self.journal_compactions,
            "journal_records_compacted": self.journal_records_compacted,
            "results_rehydrated": self.results_rehydrated,
            "idempotent_replays": self.idempotent_replays,
            "resume_coalesced": self.resume_coalesced,
            "frames_rejected": self.frames_rejected,
            "client_disconnects": self.client_disconnects,
            "stale_sockets_reclaimed": self.stale_sockets_reclaimed,
            "quota_rejections": self.quota_rejections,
            "rate_limited": self.rate_limited,
            "brownout_sheds": self.brownout_sheds,
            "brownout_degrades": self.brownout_degrades,
            "brownout_transition_count": self.brownout_transition_count,
            "brownout_level": self.brownout_level,
            "per_tenant": {t: dict(c) for t, c in sorted(self.per_tenant.items())},
        }
