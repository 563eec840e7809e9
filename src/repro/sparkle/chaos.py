"""Seeded fault injection: the chaos plane of the sparkle engine.

Real Spark clusters do not fail politely: tasks throw, executors die and
take their materialized shuffle outputs with them (forcing lineage
recomputation, §II), storage reads flake, and shuffle staging
overflows local disks (the paper's §V failure reports for large
In-Memory configurations).  A :class:`FaultPlan` injects all
of these *deterministically* so chaos runs are reproducible and
assertable.

Determinism contract
--------------------
Every injection decision is a pure function of ``(seed, kind, site)``
hashed through BLAKE2b — no wall-clock, no shared RNG stream, no
ordering sensitivity.  A site identifies where the decision is made
(stage id, partition, attempt, storage key, …), so the same seed always
faults the same sites no matter how many times the plan is consulted.
While a plan is attached, the scheduler additionally runs each stage's
tasks in partition order (``serialize_tasks``) so recovery *traces* —
retry counts, recomputed partitions, executor losses — are also
bit-reproducible; set ``serialize_tasks=False`` to chaos-test the fully
concurrent engine at the price of trace stability.

Faults only fire on attempts ``<= max_attempt`` (default: first attempt
only), which keeps any plan below the scheduler's abort threshold: the
retry loop always has a clean attempt left, so lineage recovery must
reproduce the fault-free answer — the invariant the property-based
chaos tests pin down.
"""

from __future__ import annotations

import hashlib
import threading
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "deterministic_fraction",
]

#: Per-task accounting handle of the attempt running in this thread (set
#: by the scheduler); fault decisions for storage/broadcast/shuffle I/O
#: read it to key their sites.  ``None`` means driver-side code, which
#: is never faulted.
CURRENT_TASK: ContextVar = ContextVar("sparkle_current_task", default=None)

#: The fault taxonomy (see DESIGN.md "Fault tolerance & chaos testing"):
#: ``kill``      task attempt dies with a retryable exception
#: ``lose``      the task's executor is lost; its materialized shuffle
#:               outputs are dropped so lineage recomputation is exercised
#: ``storage``   transient shared-storage read failure (CB staging I/O)
#: ``bcast``     transient broadcast-variable read failure
#: ``overflow``  transient shuffle-staging overflow on a map output write
#: ``torn_write``    a durable-store write lands truncated (crash/fs lie
#:                   mid-write); detected by the store's read-back verify
#:                   and rewritten
#: ``corrupt_block`` silent bitrot of a durable block *after* commit;
#:                   undetected until a checksummed read or ``fsck``
#: ``mem_squeeze``   the memory governor's budget shrinks at an outer-
#:                   iteration boundary (the cluster losing headroom
#:                   mid-solve); drives spill/backpressure/degradation
#: ``worker_kill``   a *real* worker process SIGKILLs itself before
#:                   running an offloaded kernel — exercises the process
#:                   backend's crash protocol (respawn, orphan reclaim,
#:                   retry) at the OS boundary, not a simulation
#: ``worker_hang``   a worker SIGSTOPs itself (wedged, not dead); the
#:                   driver watchdog detects the missed heartbeats and
#:                   SIGKILLs it, converting the hang into a crash
#: ``worker_oom``    a worker dies as if OOM-killed (SIGKILL, tagged as
#:                   an out-of-memory loss in the crash ledger)
#: ``request_storm`` a service-plane client misbehaves: its request
#:                   arrives with an impossibly tight deadline, or as an
#:                   exact duplicate of another in-flight request (the
#:                   single-flight dedup path); decided per
#:                   ``(client, seq)`` so storms replay bit-identically
#: ``driver_kill``   the *driver/service process itself* dies mid-storm
#:                   (SIGKILL, no goodbye): the harshest service-plane
#:                   fault, exercising the request journal's replay and
#:                   the ``--resume`` recovery path; decided per
#:                   ``(client, seq)`` like the other request twists so
#:                   the kill point replays bit-identically
#: ``noisy_neighbor`` a hog tenant bursts: before its own request ``seq``
#:                   the hog client injects 1–4 extra *distinct* solves
#:                   (no single-flight coalescing), saturating the queue
#:                   and the governor — the tenant-isolation storm that
#:                   the fairness plane (weighted DRR, quotas, brownout
#:                   ladder) must absorb without starving victim
#:                   tenants; decided per ``(client, seq)`` so the burst
#:                   schedule replays bit-identically
FAULT_KINDS = (
    "kill", "lose", "storage", "bcast", "overflow",
    "torn_write", "corrupt_block", "mem_squeeze",
    "worker_kill", "worker_hang", "worker_oom",
    "request_storm", "driver_kill", "noisy_neighbor",
)

#: Modest everything-on mix used by ``FaultPlan.default`` / bare
#: ``--chaos seed=N``.
DEFAULT_RATES = {
    "kill": 0.05,
    "lose": 0.03,
    "storage": 0.03,
    "bcast": 0.0,
    "overflow": 0.02,
    # Durable-store faults are inert unless a checkpoint dir is attached,
    # and arming them implicitly would perturb runs that opt into
    # durability with a bare ``seed=N`` — opt in explicitly instead.
    "torn_write": 0.0,
    "corrupt_block": 0.0,
    # Same reasoning: squeezes only bite when a memory budget is set.
    "mem_squeeze": 0.0,
    # Real process faults only bite under the process backend, and they
    # kill actual OS processes — strictly opt-in.
    "worker_kill": 0.0,
    "worker_hang": 0.0,
    "worker_oom": 0.0,
    # Request twists only mean anything to a SolverService driving a
    # storm; a bare solve has no request plane to twist.
    "request_storm": 0.0,
    # Killing the driver is the bluntest fault there is — only a soak
    # harness that also arranges the restart should ever arm it.
    "driver_kill": 0.0,
    # Hog bursts only mean anything to the noisy-neighbor storm harness,
    # which supplies the hog/victim tenant roles — strictly opt-in.
    "noisy_neighbor": 0.0,
}


def deterministic_fraction(seed: int, kind: str, site: tuple) -> float:
    """Pure hash of ``(seed, kind, site)`` into ``[0, 1)``.

    Shared by the fault plan and the supervisor's respawn jitter so both
    are reproducible from the one chaos seed.
    """
    payload = repr((int(seed), str(kind), tuple(site))).encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind armed at a given rate.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    rate:
        Probability of firing per decision site, in ``[0, 1]``.
    max_attempt:
        Fire only on task attempts ``<= max_attempt``.  The default of 1
        guarantees recovery (retries run fault-free); raise it past the
        scheduler's retry budget to test :class:`~.errors.JobAborted`.
    """

    kind: str
    rate: float
    max_attempt: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.max_attempt < 1:
            raise ValueError("max_attempt must be >= 1")


class FaultPlan:
    """A seeded, composable set of armed faults.

    Attach one plan to one :class:`~repro.sparkle.SparkleContext`; the
    ledger (:meth:`fired`) accumulates over the plan's lifetime, so
    trace-determinism comparisons should build a fresh plan per run.
    """

    def __init__(
        self,
        seed: int,
        specs: Sequence[FaultSpec] = (),
        *,
        serialize_tasks: bool = True,
    ) -> None:
        self.seed = int(seed)
        self.specs: dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.kind in self.specs:
                raise ValueError(f"duplicate FaultSpec for kind {spec.kind!r}")
            self.specs[spec.kind] = spec
        self.serialize_tasks = serialize_tasks
        self._ledger: dict[str, int] = {k: 0 for k in FAULT_KINDS}
        self._ledger_lock = threading.Lock()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def default(cls, seed: int, **overrides) -> "FaultPlan":
        """The :data:`DEFAULT_RATES` mix under ``seed``."""
        specs = [
            FaultSpec(kind, rate)
            for kind, rate in DEFAULT_RATES.items()
            if rate > 0
        ]
        return cls(seed, specs, **overrides)

    @classmethod
    def from_string(cls, text: str) -> "FaultPlan":
        """Parse the CLI grammar, e.g. ``"seed=42,kill=0.1,lose=0.05"``.

        ``seed=N`` is required.  Fault kinds take ``kind=rate``.
        ``parallel=1`` disables task serialization (concurrent chaos,
        unstable traces).  A bare ``seed=N`` arms the default mix.
        """
        seed: int | None = None
        serialize = True
        specs: list[FaultSpec] = []
        for token in filter(None, (t.strip() for t in text.split(","))):
            if "=" not in token:
                raise ValueError(f"bad --chaos token {token!r}: expected key=value")
            key, _, value = token.partition("=")
            key = key.strip()
            if key == "seed":
                seed = int(value)
            elif key == "parallel":
                serialize = not bool(int(value))
            elif key in FAULT_KINDS:
                specs.append(FaultSpec(key, float(value)))
            else:
                raise ValueError(
                    f"unknown --chaos key {key!r}; expected seed, parallel, or one of {FAULT_KINDS}"
                )
        if seed is None:
            raise ValueError("--chaos requires seed=N")
        if not specs:
            return cls.default(seed, serialize_tasks=serialize)
        return cls(seed, specs, serialize_tasks=serialize)

    # ------------------------------------------------------------------
    # decision sites (all pure given seed + site)
    # ------------------------------------------------------------------
    def _decide(self, kind: str, attempt: int, site: tuple) -> bool:
        spec = self.specs.get(kind)
        if spec is None or spec.rate <= 0.0 or attempt > spec.max_attempt:
            return False
        return deterministic_fraction(self.seed, kind, site) < spec.rate

    def task_fault(self, stage_id: int, partition: int, attempt: int) -> str | None:
        """Fault for a task attempt: ``"lose"``, ``"kill"`` or ``None``.

        Executor loss takes priority over a plain kill when both fire on
        the same site (loss subsumes the task's death).
        """
        site = (stage_id, partition, attempt)
        if self._decide("lose", attempt, site):
            self.note("lose")
            return "lose"
        if self._decide("kill", attempt, site):
            self.note("kill")
            return "kill"
        return None

    def io_fault(self, kind: str, *key) -> bool:
        """Transient I/O fault (``storage``/``bcast``/``overflow``).

        Keyed by the current task attempt plus the resource key, so a
        retry of the same task reads clean — transient by construction.
        Driver-side reads (no current task) are never faulted.
        """
        task = CURRENT_TASK.get()
        if task is None:
            return False
        site = (task.stage_id, task.partition, task.attempt) + tuple(key)
        if self._decide(kind, task.attempt, site):
            self.note(kind)
            return True
        return False

    def worker_fault(
        self, case: str, gi0: int, gj0: int, gk0: int
    ) -> str | None:
        """Real process fault for one offloaded kernel call, or ``None``.

        Decided on the *driver* side, before submit, so the ledger stays
        driver-owned; the verdict ships to the worker as an argument and
        the worker executes it on itself (SIGKILL / SIGSTOP) before
        touching the kernel.  Keyed by the current task attempt plus the
        kernel-call coordinate, so a scheduler retry of the same tile
        runs clean under the default ``max_attempt=1`` contract.
        Driver-side calls (no current task) are never faulted.
        """
        task = CURRENT_TASK.get()
        if task is None:
            return None
        site = (task.stage_id, task.partition, task.attempt, case, gi0, gj0, gk0)
        for kind in ("worker_kill", "worker_oom", "worker_hang"):
            if self._decide(kind, task.attempt, site):
                self.note(kind)
                return kind
        return None

    def mem_squeeze(self, iteration: int) -> float:
        """Budget shrink factor at an outer-iteration boundary.

        Returns 1.0 (no squeeze) or a deterministic factor in
        ``[0.4, 0.75)`` — the governor multiplies its budget by it.
        Driver-side and keyed only by the iteration, so the squeeze
        schedule (and everything downstream: spills, pressure
        transitions, degradations) is a pure function of the seed.
        """
        if self._decide("mem_squeeze", 1, ("iter", iteration)):
            self.note("mem_squeeze")
            frac = deterministic_fraction(
                self.seed, "mem_squeeze", ("factor", iteration)
            )
            return 0.4 + 0.35 * frac
        return 1.0

    def request_fault(self, client: int, seq: int) -> str | None:
        """Service-plane twist for request ``seq`` of ``client``.

        Returns ``"tight_deadline"`` (the request arrives with a
        deadline it cannot possibly meet — exercising mid-flight
        cancellation and cleanup), ``"duplicate"`` (the request repeats
        the client's previous workload — exercising single-flight dedup
        and the result cache), or ``None``.  Driver-side and keyed only
        by ``(client, seq)``, so a seeded request storm replays the same
        twist schedule regardless of thread interleaving.
        """
        site = ("request", client, seq)
        if self._decide("request_storm", 1, site):
            self.note("request_storm")
            frac = deterministic_fraction(
                self.seed, "request_storm", ("twist", client, seq)
            )
            return "tight_deadline" if frac < 0.5 else "duplicate"
        return None

    def driver_kill(self, client: int, seq: int) -> bool:
        """Should the driver die before request ``seq`` of ``client``?

        The harshest service-plane fault: the storm harness SIGKILLs the
        serving process (or flips it into drain, for in-process storms)
        at this point, then the soak restarts it with ``--resume`` and
        asserts exactly-once-visible settlement.  Keyed by
        ``(client, seq)`` so the kill lands at the same logical point in
        every replay of the storm, regardless of thread interleaving.
        """
        site = ("driver", client, seq)
        if self._decide("driver_kill", 1, site):
            self.note("driver_kill")
            return True
        return False

    def noisy_neighbor(self, client: int, seq: int) -> int:
        """Extra hog-burst solves to inject before request ``seq``.

        Returns 0 (no burst) or 1–4: the storm harness has its *hog*
        tenant submit that many additional distinct requests before its
        scheduled one, pressuring the dispatcher queue, the governor,
        and the result cache all at once.  Victim tenants never burst —
        the harness only consults this for the hog — and the decision is
        keyed by ``(client, seq)`` so the burst schedule (and therefore
        the fairness outcome being asserted) replays bit-identically
        per seed.
        """
        site = ("hog", client, seq)
        if self._decide("noisy_neighbor", 1, site):
            self.note("noisy_neighbor")
            frac = deterministic_fraction(
                self.seed, "noisy_neighbor", ("burst", client, seq)
            )
            return 1 + int(frac * 4)
        return 0

    def durable_fault(self, kind: str, key, attempt: int) -> bool:
        """Durable-store fault (``torn_write``/``corrupt_block``).

        Unlike :meth:`io_fault` this fires for *driver-side* writes too —
        the journal and snapshot blocks are written by the driver, and a
        crash-consistency layer that only failed inside tasks would miss
        its main customer.  Keyed by the block key plus the store's
        per-key write attempt, so a detected torn write retries clean
        under the default ``max_attempt=1`` contract.
        """
        site = (repr(key), attempt)
        if self._decide(kind, attempt, site):
            self.note(kind)
            return True
        return False

    # ------------------------------------------------------------------
    # ledger & display
    # ------------------------------------------------------------------
    def note(self, kind: str) -> None:
        with self._ledger_lock:
            self._ledger[kind] += 1

    def fired(self) -> dict[str, int]:
        """Injection counts by kind (deterministic under the contract)."""
        with self._ledger_lock:
            return dict(self._ledger)

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        for kind in FAULT_KINDS:
            spec = self.specs.get(kind)
            if spec is None or spec.rate <= 0:
                continue
            text = f"{kind}={spec.rate:g}"
            if spec.max_attempt != 1:
                text += f"@<={spec.max_attempt}"
            parts.append(text)
        if not self.serialize_tasks:
            parts.append("parallel")
        return f"FaultPlan({', '.join(parts)})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
