"""Solver-as-a-service: a hardened request plane over one SparkleContext.

:class:`SolverService` turns the batch GEP solver into a long-lived
service (DESIGN.md §15).  Concurrent clients call :meth:`SolverService.solve`
(or :meth:`~SolverService.submit` for a ticket); every request passes
through five defensive layers before an engine pass runs:

1. **Admission control** — a bounded request queue gated by
   :class:`~repro.sparkle.memory.MemoryManager` pressure.  ``critical``
   pressure sheds new work outright; ``pressured`` halves the queue
   bound; overflow raises a typed, retryable
   :class:`~repro.sparkle.errors.ServiceOverloadedError` instead of
   letting latency grow without bound.
2. **Single-flight dedup** — requests with the same solve fingerprint
   (:meth:`~repro.sparkle.requests.SolveRequest.fingerprint`, the same
   identity the resume journal uses) coalesce onto one engine pass, and
   completed results land in a checksummed LRU cache charged to the
   storage pool (squeezes evict it before it can go stale).  The cache
   also knows each live entry by the generator identities of the wire
   requests that reached it, so a repeat socket request is served
   without regenerating or re-hashing its input.
3. **Deadlines** — a per-request wall-clock budget covers queueing and
   the pass itself.  Mid-flight it propagates into the scheduler's
   stage/attempt boundaries and the process backend's offload waits
   (``set_job_deadline``), so an overrun SIGKILLs stuck workers and
   reaps their segments via the PR 5 crash protocol rather than leaking.
4. **Retry + circuit breaker** — transient engine faults are retried
   with bounded backoff; repeated :class:`~repro.sparkle.errors.WorkerCrashed`
   / :class:`~repro.sparkle.errors.PoisonTaskError` under the process
   backend trips a breaker that fails the data plane over to in-process
   threads (``disable_offload`` + the supervisor degrade latch), then
   half-opens a probe after a cooldown.
5. **Tenant isolation** (DESIGN.md §18) — requests carrying a tenant
   face per-tenant gates: token-bucket admission rate limits and byte
   quotas on the memory governor's tenant ledger (in-flight solve
   estimates plus cached-result bytes), refused with a typed retryable
   :class:`~repro.sparkle.errors.TenantQuotaExceededError`; the
   dispatcher queue is weighted deficit-round-robin across tenants, so
   a hog saturates only its own weight; and a deterministic
   :class:`~repro.sparkle.tenancy.BrownoutLadder` degrades gracefully
   under pressure — serve IM requests on the bit-identical CB
   strategy, then shed lowest-weight tenants with ``retry_after`` —
   with every transition metered clear-on-read.

Engine passes are **serialized** through one dispatcher thread:
concurrent passes over a shared context would interleave stage ids
and metrics.  Concurrency lives entirely in the
request plane — which is exactly what the single-flight/caching layers
exploit.  Between passes :meth:`SparkleContext.reclaim_solve_state`
drops shuffle outputs, cached blocks, and shared-storage tiles so a
long-lived service does not accrete per-solve state.

The request plane itself is crash-proof (DESIGN.md §16): a
:class:`RequestJournal` fsync-appends every admission to a checksummed
WAL (keyed by client idempotency keys) and every settlement after it,
spooling completed results to a durable store — so ``repro serve
--resume`` replays exactly the in-flight set after a driver kill,
re-clamps deadlines to their remaining budget, rehydrates the result
cache, and serves reconnecting clients their original results without
re-running the engine.  SIGTERM/SIGINT trigger a graceful drain
(admission sheds with typed :class:`~repro.sparkle.errors.
ServiceDrainingError`, in-flight work settles, the journal is
checkpointed, the socket unlinked last), and :func:`send_request`
reconnects with jittered backoff reusing its idempotency key, so a
mid-response driver loss resolves to the same bytes after restart.

The module also ships :func:`run_request_storm` (the seeded chaos
driver for ``request_storm`` / ``driver_kill`` fault plans) and a
hardened Unix-socket server/client pair backing ``repro serve`` /
``repro request`` (frame-length caps, per-connection fault isolation,
stale-socket reclaim).
"""

from __future__ import annotations

import ast
import hashlib
import itertools
import os
import pickle
import signal
import socket
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable

import numpy as np

from .sparkle.chaos import deterministic_fraction
from .sparkle.durable import DurableBlockStore, SolveJournal
from .sparkle.errors import (
    BlockNotFoundError,
    CorruptBlockError,
    ExecutorLost,
    FrameTooLargeError,
    JobAborted,
    PoisonTaskError,
    RequestDeadlineExceeded,
    ServiceDrainingError,
    ServiceOverloadedError,
    ShuffleFetchFailed,
    SparkleError,
    TaskDeadlineExceeded,
    TaskKilled,
    TenantQuotaExceededError,
    TransientIOError,
    WorkerCrashed,
)
from .sparkle.memory import PRESSURE_CRITICAL, PRESSURE_OK
from .sparkle.metrics import ServiceMetrics
from .sparkle.requests import SolveRequest, SolveResponse
from .sparkle.tenancy import (
    BrownoutLadder,
    DeficitRoundRobin,
    TenantPolicy,
    TokenBucket,
)

__all__ = [
    "ServiceConfig",
    "SolveTicket",
    "ResultCache",
    "CircuitBreaker",
    "RequestJournal",
    "SolverService",
    "TenantPolicy",
    "run_request_storm",
    "run_noisy_neighbor_storm",
    "serve_forever",
    "send_request",
    "is_retryable",
]

#: Engine faults worth a service-level retry: the solve may succeed on a
#: fresh pass (respawned workers, recomputed lineage, relaxed pressure).
#: ``RequestDeadlineExceeded`` is deliberately absent — the budget is
#: spent, retrying cannot help.
SERVICE_RETRYABLE = (
    WorkerCrashed,
    PoisonTaskError,
    TaskDeadlineExceeded,
    TaskKilled,
    ExecutorLost,
    TransientIOError,
    ShuffleFetchFailed,
    BlockNotFoundError,
    JobAborted,
)

#: Faults that indict the *process backend* specifically and count
#: toward tripping the circuit breaker.
_BREAKER_FAULTS = (WorkerCrashed, PoisonTaskError)


def is_retryable(exc: BaseException) -> bool:
    """Should a client resubmit after this failure?

    Overload sheds are retryable by definition (they carry
    ``retry_after`` hints); engine faults follow
    :data:`SERVICE_RETRYABLE`.  Deadline overruns are not retryable —
    the same budget will be exceeded again.
    """
    if isinstance(exc, ServiceOverloadedError):
        return True
    if isinstance(exc, ServiceDrainingError):
        # The drain always precedes a restart (or a peer): retry there.
        return True
    if isinstance(exc, TenantQuotaExceededError):
        # The tenant's own in-flight work (or token bucket) will drain;
        # ``retry_after`` says when to come back.
        return True
    if isinstance(exc, RequestDeadlineExceeded):
        return False
    return isinstance(exc, SERVICE_RETRYABLE)


def _breaker_fault(exc: BaseException) -> bool:
    """Does this failure count against the process backend's breaker?

    The scheduler wraps exhausted retries as ``JobAborted(...) from
    last_exc``, so the real fault rides in ``__cause__``.
    """
    if isinstance(exc, _BREAKER_FAULTS):
        return True
    if isinstance(exc, JobAborted) and exc.__cause__ is not None:
        return isinstance(exc.__cause__, _BREAKER_FAULTS)
    return False


@dataclass
class ServiceConfig:
    """Tunables for the request plane.

    Parameters
    ----------
    max_queue_depth:
        Flights (deduplicated solves) allowed to wait behind the
        dispatcher under ``ok`` pressure; halved (floor 1) under
        ``pressured``, zero effective admission under ``critical``.
    cache_entries:
        LRU result-cache capacity in entries; bytes are additionally
        bounded by the storage pool (reservations fail → evict).
    retries:
        Engine passes retried per flight after a retryable fault.
    default_deadline:
        Applied to requests that carry none (``None`` = unlimited).
    max_frame_bytes:
        Socket frames announcing more than this many payload bytes are
        refused with :class:`FrameTooLargeError` before any payload is
        read (allocation-bomb guard).
    tenant_policies:
        ``tenant -> TenantPolicy`` isolation knobs (DESIGN.md §18):
        DRR weight, byte quota on the governor's tenant ledger, and
        token-bucket admission rate.  Tenants absent from the map get
        :attr:`SolverService.default_tenant_weight`, no quota, and no
        rate limit.
    brownout:
        Arm the :class:`~repro.sparkle.tenancy.BrownoutLadder`
        (degrade → shed under pressure); off leaves only the
        PR 7 admission gates.

    The retry backoff, the ``retry_after`` hints, the default tenant
    weight and the quota charge factor are :class:`SolverService` class
    attributes, and the breaker's threshold and cooldown are
    :class:`CircuitBreaker`'s — one value each in use, so not options.
    """

    max_queue_depth: int = 16
    cache_entries: int = 32
    retries: int = 2
    default_deadline: float | None = None
    max_frame_bytes: int = 256 * 1024 * 1024
    tenant_policies: dict[str, TenantPolicy] = field(default_factory=dict)
    brownout: bool = True

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.cache_entries < 0:
            raise ValueError("cache_entries must be >= 0")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.max_frame_bytes < 4096:
            raise ValueError("max_frame_bytes must be >= 4096")


class SolveTicket:
    """A claim on one admitted request; ``result()`` blocks for it.

    Tickets settle exactly once (completed / failed / deadline), no
    matter how many parties race — the flight finishing, the waiter's
    own deadline firing, service shutdown — so per-request metrics are
    counted exactly once too.
    """

    def __init__(
        self,
        service: "SolverService",
        request: SolveRequest,
        fingerprint: str,
        deadline_at: float | None,
    ) -> None:
        self._service = service
        self.request = request
        self.fingerprint = fingerprint
        #: absolute ``time.monotonic()`` deadline (None = unbounded)
        self.deadline_at = deadline_at
        self.coalesced = False
        self.from_cache = False
        #: WAL key this admission was journaled under (None = unjournaled
        #: path: cache hit, idempotent replay, or journal-less service)
        self.journal_key: str | None = None
        self._t0 = time.monotonic()
        self._event = threading.Event()
        self._settle_lock = threading.Lock()
        self._outcome: str | None = None
        self._response: SolveResponse | None = None
        self._error: BaseException | None = None

    @property
    def done(self) -> bool:
        return self._event.is_set()

    @property
    def outcome(self) -> str | None:
        """Terminal state label once settled (DESIGN.md §15)."""
        return self._outcome

    def _settle(self, outcome: str) -> bool:
        """Claim the terminal state; True for the first caller only."""
        with self._settle_lock:
            if self._outcome is not None:
                return False
            self._outcome = outcome
            return True

    def _fulfill(
        self, result: np.ndarray, checksum: str, *, from_cache: bool = False
    ) -> None:
        """Complete with ``result``, whose :func:`_checksum` the caller
        already holds — the reply and the journal reuse it."""
        if not self._settle("completed"):
            return
        self.from_cache = from_cache
        self._response = SolveResponse(
            result=result,
            fingerprint=self.fingerprint,
            checksum=checksum,
            request_id=self.request.request_id,
            from_cache=from_cache,
            coalesced=self.coalesced,
            wall_seconds=time.monotonic() - self._t0,
        )
        # Durable settle *before* waking the waiter: once a client has
        # seen a reply, a crash-and-resume must never re-run the work.
        self._service._journal_settle(
            self, "completed", result=result, checksum=checksum
        )
        m = self._service.metrics
        with self._service._metrics_lock:
            m.requests_completed += 1
            m.tenant_event(self.request.tenant, "completed")
        self._event.set()

    def _fail(self, exc: BaseException) -> None:
        deadline = isinstance(exc, RequestDeadlineExceeded)
        outcome = "deadline-cancelled" if deadline else "failed"
        if not self._settle(outcome):
            return
        self._error = exc
        self._service._journal_settle(self, outcome, error=exc)
        m = self._service.metrics
        with self._service._metrics_lock:
            if deadline:
                m.deadline_cancelled += 1
            else:
                m.requests_failed += 1
        self._event.set()

    def result(self, timeout: float | None = None) -> SolveResponse:
        """Block for the response; raises the typed failure on error.

        A waiter whose own deadline passes while the (possibly
        coalesced) flight is still running raises
        :class:`RequestDeadlineExceeded` — other waiters on the same
        flight with looser deadlines are unaffected.
        """
        timeout_at = None if timeout is None else time.monotonic() + timeout
        while not self._event.is_set():
            now = time.monotonic()
            if self.deadline_at is not None and now >= self.deadline_at:
                self._fail(
                    RequestDeadlineExceeded(
                        "request deadline expired while waiting for the flight",
                        deadline=self.request.deadline,
                        elapsed=now - self._t0,
                    )
                )
                break
            if timeout_at is not None and now >= timeout_at:
                raise TimeoutError(
                    f"no response within {timeout:.3f}s (request still in flight)"
                )
            wake_at = [t for t in (self.deadline_at, timeout_at) if t is not None]
            self._event.wait(min(wake_at) - now if wake_at else None)
        if self._error is not None:
            raise self._error
        assert self._response is not None
        return self._response


class _Flight:
    """One deduplicated engine pass plus everyone waiting on it."""

    __slots__ = ("fingerprint", "waiters", "done", "tenant", "charge")

    def __init__(self, fingerprint: str, tenant: str | None = None) -> None:
        self.fingerprint = fingerprint
        self.waiters: list[SolveTicket] = []
        self.done = False
        #: tenant of the *admitting* ticket — the DRR queue key and the
        #: party the in-flight quota charge is attributed to (coalesced
        #: waiters ride free: the flight is the unit of work)
        self.tenant = tenant
        #: bytes charged to the tenant ledger for this flight's lifetime
        self.charge = 0

    def deadline_at(self) -> float | None:
        """The pass runs to the *loosest* waiter's deadline.

        Tighter waiters time out individually in ``result()``; only
        when every waiter has a deadline may the engine pass itself be
        cancelled (max of the absolute deadlines).
        """
        worst: float | None = None
        for t in self.waiters:
            if t.deadline_at is None:
                return None
            worst = t.deadline_at if worst is None else max(worst, t.deadline_at)
        return worst


class _CacheEntry:
    __slots__ = ("array", "checksum", "nbytes", "tenant", "identities")

    def __init__(
        self, array: np.ndarray, checksum: str, tenant: str | None = None
    ) -> None:
        self.array = array
        self.checksum = checksum
        self.nbytes = int(array.nbytes)
        #: tenant whose quota ledger carries this entry's bytes (None =
        #: anonymous or rehydrated-from-spool: storage-charged only)
        self.tenant = tenant
        #: request identities known to resolve to this entry; they leave
        #: the cache's identity map together with the entry
        self.identities: list[Hashable] = []


def _checksum(array: np.ndarray) -> str:
    return hashlib.blake2b(
        np.ascontiguousarray(array).tobytes(), digest_size=16
    ).hexdigest()


class ResultCache:
    """Checksummed LRU of solve results, charged to the storage pool.

    Every hit re-verifies the entry's BLAKE2b checksum — a corrupted or
    partially-evicted buffer is dropped and treated as a miss rather
    than served.  Bytes are reserved from the MemoryManager's
    ``storage`` pool; when a reservation fails the LRU tail is evicted
    until it fits (or the entry is simply not cached).  A budget
    squeeze invalidates entries until pressure clears, so the cache
    never pins memory the engine needs.

    Beside the entries sits an identity map: a request's
    :meth:`~repro.sparkle.requests.SolveRequest.identity` → the
    fingerprint of the live entry it resolved to, learned only from
    fingerprints computed from a real table (on ``put`` for the flight's
    waiters, on a hit).  It lets :meth:`SolverService.submit` find a
    repeat wire request's entry without generating its table.  An
    identity leaves with its entry, and the map never holds more than
    ``max_entries`` identities.
    """

    OWNER = "service-cache"

    def __init__(self, max_entries: int, memory, metrics: ServiceMetrics) -> None:
        self.max_entries = max_entries
        self._memory = memory
        self._metrics = metrics
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _CacheEntry]" = OrderedDict()
        self._fingerprints: dict[Hashable, str] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def live_bytes(self) -> int:
        with self._lock:
            return sum(e.nbytes for e in self._entries.values())

    def fingerprint_of(self, identity: Hashable) -> str | None:
        """The fingerprint of the live entry ``identity`` resolved to."""
        with self._lock:
            return self._fingerprints.get(identity)

    def get(
        self, fingerprint: str, identity: Hashable | None = None
    ) -> tuple[np.ndarray, str] | None:
        """A verified copy of the cached result and its checksum, or None.

        On a hit, ``identity`` (when given) is learned for this entry.
        """
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self._metrics.cache_misses += 1
                return None
            if _checksum(entry.array) != entry.checksum:
                self._metrics.cache_integrity_failures += 1
                self._drop_locked(fingerprint)
                self._metrics.cache_misses += 1
                return None
            self._entries.move_to_end(fingerprint)
            self._metrics.cache_hits += 1
            self._learn_locked((identity,), fingerprint)
            # Callers get a private copy; the cached buffer never escapes.
            return entry.array.copy(), entry.checksum

    def put(
        self,
        fingerprint: str,
        result: np.ndarray,
        *,
        tenant: str | None = None,
        checksum: str | None = None,
        identities: Iterable[Hashable] = (),
    ) -> bool:
        """Cache a fresh result; False if it could not be admitted.

        ``checksum`` is ``_checksum(result)`` when the caller already
        holds it; ``identities`` (None for a request without one) are
        learned for the entry.

        When the owning tenant has a quota, the entry's bytes are also
        attributed to its tenant ledger — and a quota breach simply
        *skips caching* (the solve already succeeded; the tenant just
        loses the cache privilege).  It never evicts another tenant's
        entries to make room inside someone else's quota.
        """
        if self.max_entries == 0:
            return False
        array = np.ascontiguousarray(result).copy()
        entry = _CacheEntry(array, checksum or _checksum(array), tenant)
        with self._lock:
            if fingerprint in self._entries:
                self._entries.move_to_end(fingerprint)
                self._learn_locked(identities, fingerprint)
                return True
            # The quota is asked first: a refused put must not have
            # evicted anyone to make room for itself.
            if tenant is not None and not self._memory.charge_tenant(
                tenant, entry.nbytes
            ):
                return False
            while len(self._entries) >= self.max_entries:
                self._evict_lru_locked()
            while not self._memory.reserve("storage", self.OWNER, entry.nbytes):
                if not self._entries:
                    if tenant is not None:
                        self._memory.release_tenant(tenant, entry.nbytes)
                    return False
                self._evict_lru_locked()
            self._entries[fingerprint] = entry
            self._learn_locked(identities, fingerprint)
            return True

    def invalidate(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint not in self._entries:
                return False
            self._drop_locked(fingerprint)
            self._metrics.cache_invalidations += 1
            return True

    def clear(self) -> None:
        with self._lock:
            for fp in list(self._entries):
                self._drop_locked(fp)

    def on_squeeze(self, new_budget: int) -> None:
        """Squeeze listener: shed entries until pressure clears.

        Runs outside the MemoryManager's lock (see ``squeeze``), so the
        ``release`` calls inside ``_drop_locked`` cannot deadlock.
        """
        with self._lock:
            while self._entries and self._memory.pressure() != PRESSURE_OK:
                self._drop_locked(next(iter(self._entries)))
                self._metrics.cache_invalidations += 1

    def _evict_lru_locked(self) -> None:
        self._drop_locked(next(iter(self._entries)))
        self._metrics.cache_evictions += 1

    def _learn_locked(
        self, identities: Iterable[Hashable], fingerprint: str
    ) -> None:
        entry = self._entries[fingerprint]
        for identity in identities:
            # An identity names one input and config, so it maps to one
            # fingerprint; several may share an entry, hence the bound.
            if (
                identity is None
                or identity in self._fingerprints
                or len(self._fingerprints) >= self.max_entries
            ):
                continue
            self._fingerprints[identity] = fingerprint
            entry.identities.append(identity)

    def _drop_locked(self, fingerprint: str) -> None:
        entry = self._entries.pop(fingerprint)
        for identity in entry.identities:
            del self._fingerprints[identity]
        self._memory.release("storage", self.OWNER, entry.nbytes)
        if entry.tenant is not None:
            self._memory.release_tenant(entry.tenant, entry.nbytes)


class CircuitBreaker:
    """Closed → open → half-open breaker over the process backend.

    ``threshold`` consecutive worker-crash/poison faults open the
    circuit: subsequent passes run with offload disabled (the thread
    path — bit-identical, just slower).  After ``cooldown`` seconds one
    probe pass half-opens back onto processes; success closes the
    circuit, another fault reopens it.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    #: consecutive breaker-countable faults (worker crashes / poison
    #: quarantines) before the circuit opens
    threshold: int = 3
    #: seconds an open circuit waits before half-opening one probe pass
    cooldown: float = 2.0

    def __init__(self, metrics: ServiceMetrics) -> None:
        self._metrics = metrics
        self._lock = threading.Lock()
        self.state = self.CLOSED
        self.failures = 0
        self._opened_at = 0.0

    def allow_offload(self) -> bool:
        """May the next pass use the process backend?"""
        with self._lock:
            if self.state == self.CLOSED:
                return True
            if self.state == self.HALF_OPEN:
                # A probe is already in flight; stay on the safe path.
                return False
            if time.monotonic() - self._opened_at >= self.cooldown:
                self.state = self.HALF_OPEN
                self._metrics.circuit_half_opens += 1
                return True
            return False

    def record_success(self, *, offloaded: bool) -> None:
        with self._lock:
            if not offloaded:
                return
            if self.state == self.HALF_OPEN:
                self.state = self.CLOSED
                self._metrics.circuit_closes += 1
            self.failures = 0

    def record_failure(self, *, offloaded: bool) -> None:
        with self._lock:
            if not offloaded:
                return
            self.failures += 1
            if self.state == self.HALF_OPEN or self.failures >= self.threshold:
                if self.state != self.OPEN:
                    self._metrics.circuit_trips += 1
                self.state = self.OPEN
                self._opened_at = time.monotonic()
                self.failures = 0

    def retry_after(self) -> float:
        with self._lock:
            if self.state != self.OPEN:
                return 0.0
            return max(0.0, self.cooldown - (time.monotonic() - self._opened_at))


class RequestJournal:
    """Durable WAL of admitted requests plus a spooled-result store.

    The survivability layer of DESIGN.md §16.  Two on-disk pieces under
    one directory, both built from the PR 2 durability idioms:

    ``requests.wal``
        A :class:`~repro.sparkle.durable.SolveJournal` (checksummed
        JSONL, contiguous seq numbers, torn-tail truncation on open).
        Every admission is fsync-appended *before* the client's ticket
        is returned (``kind=admitted``: idempotency key, fingerprint,
        the replayable wire payload, deadline, wall-clock admission
        time); every settlement appends ``kind=settled`` *before* the
        waiter wakes.  The set "admitted keys whose latest record is
        not a settle" is therefore exactly the in-flight set at any
        crash point — which is what ``--resume`` replays.

    ``results/``
        A bounded :class:`~repro.sparkle.durable.DurableBlockStore`
        spool of completed results keyed by solve fingerprint, written
        *before* the settle record (the record is the commit point, the
        PR 2 snapshot-then-journal protocol).  Resume rehydrates the
        in-memory :class:`ResultCache` from it, and reconnecting
        clients replaying an idempotency key are served from it with no
        engine pass.

    Thread-safe; an instance may be shared by the admission path, the
    dispatcher's settles, and a concurrent ``--stats`` reader.  Counters
    land in the owning service's :class:`ServiceMetrics` once
    :meth:`bind_metrics` attaches them.
    """

    WAL_FILENAME = "requests.wal"
    SPOOL_DIR = "results"

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        spool_entries: int = 32,
    ) -> None:
        if spool_entries < 0:
            raise ValueError("spool_entries must be >= 0")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.wal = SolveJournal(self.root, filename=self.WAL_FILENAME)
        self.spool = DurableBlockStore(self.root / self.SPOOL_DIR)
        self.spool_entries = spool_entries
        self._lock = threading.Lock()
        self._metrics: ServiceMetrics | None = None
        self._metrics_lock: threading.Lock | None = None
        #: latest WAL record per idempotency key — "admitted" means
        #: in-flight, "settled" means done (and maybe serviceable)
        self._state: dict[str, dict] = {}
        #: completed-result fingerprints in (approximate) insertion
        #: order; the spool's pruning queue
        self._spool_index: "OrderedDict[str, None]" = OrderedDict()
        self.torn_records = 0
        self._load()

    def _load(self) -> None:
        raw = self.wal.verify()
        self.torn_records = raw["records_total"] - raw["records_valid"]
        for entry in self.wal.truncate_to_valid():
            key = entry.get("key")
            if key is not None:
                self._state[key] = entry
        for key_repr in self.spool.keys():
            try:
                fingerprint = ast.literal_eval(key_repr)
            except (ValueError, SyntaxError):  # pragma: no cover — foreign key
                continue
            self._spool_index[fingerprint] = None

    def bind_metrics(self, metrics: ServiceMetrics, lock: threading.Lock) -> None:
        self._metrics = metrics
        self._metrics_lock = lock
        with lock:
            metrics.journal_torn_records += self.torn_records

    def _count(self, counter: str, amount: int = 1) -> None:
        if self._metrics is None or self._metrics_lock is None:
            return
        with self._metrics_lock:
            setattr(
                self._metrics, counter, getattr(self._metrics, counter) + amount
            )

    # -- write path ----------------------------------------------------

    def admit(
        self,
        key: str,
        fingerprint: str,
        payload: dict[str, Any],
        *,
        deadline: float | None = None,
        tenant: str | None = None,
        admitted_unix: float | None = None,
    ) -> dict:
        """Fsync-append one admission; returns the sealed WAL entry.

        ``payload`` must be the JSON-safe *wire* form of the request
        (what :func:`_build_request` consumes) so a restarted process
        can rebuild and re-run it.  ``admitted_unix`` records wall-clock
        admission time — resume re-clamps the deadline to the remaining
        budget against it (monotonic clocks do not survive a restart).
        """
        record = {
            "kind": "admitted",
            "key": key,
            "fingerprint": fingerprint,
            "payload": dict(payload),
            "deadline": deadline,
            "tenant": tenant,
            "admitted_unix": time.time() if admitted_unix is None else admitted_unix,
        }
        with self._lock:
            entry = self.wal.append(record)
            self._state[key] = entry
        self._count("journal_admits")
        return entry

    def settle(
        self,
        key: str,
        outcome: str,
        *,
        fingerprint: str | None = None,
        result: np.ndarray | None = None,
        checksum: str | None = None,
        error: BaseException | None = None,
    ) -> bool:
        """Durably settle ``key``; False if it already settled (dedup).

        A completed result is spooled first (keyed by fingerprint, so
        coalesced keys share one block), then the settle record commits
        it — a crash between the two leaves an unreferenced spool block
        that compaction prunes, never a settle without its result.
        ``checksum`` is ``_checksum(result)`` when the caller holds it.
        """
        record: dict[str, Any] = {
            "kind": "settled",
            "key": key,
            "outcome": outcome,
            "fingerprint": fingerprint,
        }
        with self._lock:
            state = self._state.get(key)
            if state is not None and state.get("kind") == "settled":
                return False
            if result is not None and fingerprint is not None:
                self._spool_put_locked(fingerprint, result)
                record["result_check"] = checksum or _checksum(result)
            if error is not None:
                record["error_type"] = type(error).__name__
                record["error_message"] = str(error)
            entry = self.wal.append(record)
            self._state[key] = entry
        self._count("journal_settles")
        return True

    def _spool_put_locked(self, fingerprint: str, result: np.ndarray) -> None:
        if self.spool_entries == 0:
            return
        if fingerprint not in self._spool_index:
            self.spool.put(fingerprint, np.ascontiguousarray(result))
            self._spool_index[fingerprint] = None
        else:
            self._spool_index.move_to_end(fingerprint)
        while len(self._spool_index) > self.spool_entries:
            evicted, _ = self._spool_index.popitem(last=False)
            self.spool.delete(evicted)

    # -- read path -----------------------------------------------------

    def is_inflight(self, key: str) -> bool:
        with self._lock:
            state = self._state.get(key)
            return state is not None and state.get("kind") == "admitted"

    def settled_lookup(self, key: str) -> dict | None:
        """The settle record for ``key``, or None if unsettled/unknown."""
        with self._lock:
            state = self._state.get(key)
            if state is not None and state.get("kind") == "settled":
                return dict(state)
            return None

    def settled_result(self, record: dict) -> np.ndarray | None:
        """The spooled result a settle record committed, verified.

        None when the spool pruned it (capacity) or the bytes fail the
        settle record's checksum — callers fall through to a fresh
        engine pass rather than serve doubtful bytes.
        """
        fingerprint = record.get("fingerprint")
        if fingerprint is None:
            return None
        try:
            array = self.spool.get(fingerprint)
        except (BlockNotFoundError, CorruptBlockError):
            return None
        expected = record.get("result_check")
        if expected is not None and _checksum(array) != expected:
            return None
        return array

    def incomplete(self) -> list[dict]:
        """Admitted-but-unsettled records, in admission (seq) order."""
        with self._lock:
            records = [
                dict(rec)
                for rec in self._state.values()
                if rec.get("kind") == "admitted"
            ]
        return sorted(records, key=lambda r: r.get("seq", 0))

    def spooled(self) -> list[tuple[str, np.ndarray]]:
        """Every readable ``(fingerprint, result)`` in the spool."""
        with self._lock:
            fingerprints = list(self._spool_index)
        out: list[tuple[str, np.ndarray]] = []
        for fingerprint in fingerprints:
            try:
                out.append((fingerprint, self.spool.get(fingerprint)))
            except (BlockNotFoundError, CorruptBlockError):
                continue
        return out

    # -- maintenance ---------------------------------------------------

    def compact(self) -> int:
        """Checkpoint the WAL; returns the number of records dropped.

        Keeps exactly (a) in-flight admissions — the records a resume
        must replay — and (b) completed settles whose result is still
        spooled — the records that serve reconnecting clients.  History
        behind those (settled work past spool capacity, failed/cancelled
        settles, superseded admissions of re-used keys) is dropped, and
        spool blocks no kept record references are pruned, so the
        journal directory stays bounded no matter how long the service
        runs.  The rewrite is one atomic rename (see
        :meth:`SolveJournal.rewrite`).
        """
        with self._lock:
            keep: list[dict] = []
            kept_fingerprints: set[str] = set()
            for key, rec in self._state.items():
                if rec.get("kind") == "admitted":
                    keep.append(rec)
                elif (
                    rec.get("outcome") == "completed"
                    and rec.get("fingerprint") in self._spool_index
                ):
                    keep.append(rec)
                    kept_fingerprints.add(rec["fingerprint"])
            keep.sort(key=lambda r: r.get("seq", 0))
            total = len(self.wal.entries())
            dropped = total - len(keep)
            sealed = self.wal.rewrite(keep)
            self._state = {e["key"]: e for e in sealed}
            for fingerprint in list(self._spool_index):
                if fingerprint not in kept_fingerprints:
                    del self._spool_index[fingerprint]
                    self.spool.delete(fingerprint)
        self._count("journal_compactions")
        self._count("journal_records_compacted", dropped)
        return dropped


class SolverService:
    """Long-lived request plane over one shared :class:`SparkleContext`.

    Thread-safe: any number of client threads may call
    :meth:`submit`/:meth:`solve` concurrently.  Engine passes run one
    at a time on the internal dispatcher thread (see module docstring
    for why), with admission, dedup, caching, deadlines, retry, and the
    circuit breaker layered in front.

    The class attributes below have one value in use, so they are not
    :class:`ServiceConfig` fields; a test that needs another sets the
    attribute on its service.
    """

    #: bounded exponential backoff between engine passes of one flight:
    #: ``min(base · 2^(attempt-1), cap)`` seconds
    retry_backoff_base: float = 0.02
    retry_backoff_cap: float = 0.25
    #: ``retry_after`` hint attached to overload sheds, seconds
    shed_retry_after: float = 0.25
    #: ``retry_after`` hint attached to :class:`ServiceDrainingError`
    #: sheds — how long to wait before retrying the restarted instance
    drain_retry_after: float = 1.0
    #: DRR weight of a tenant without a policy (and of anonymous
    #: requests, which all share the ``None`` tenant queue)
    default_tenant_weight: int = 1
    #: in-flight quota charge per admitted flight, as a multiple of the
    #: request table's bytes: IM's worst case of three simultaneously
    #: materialized table copies (the paper's §IV-C working-set bound),
    #: so the quota prices peak engine footprint, not just the input
    tenant_charge_factor: int = 3

    def __init__(
        self,
        sc,
        *,
        config: ServiceConfig | None = None,
        journal: RequestJournal | None = None,
    ) -> None:
        self.sc = sc
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics()
        self._metrics_lock = threading.Lock()
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._policies: dict[str, TenantPolicy] = dict(
            self.config.tenant_policies
        )
        self._buckets: dict[str, TokenBucket] = {}
        self._queue = DeficitRoundRobin(weight_of=self._weight)
        self.ladder = BrownoutLadder(self.config.max_queue_depth)
        self._inflight: dict[str, _Flight] = {}
        self._running: _Flight | None = None
        self._stopped = False
        self._draining = False
        self._journal = journal
        self._auto_keys = itertools.count()
        if journal is not None:
            journal.bind_metrics(self.metrics, self._metrics_lock)
        # The tenant ledger is an overlay on the governor, independent
        # of whether the governor has a byte budget.
        for tenant, policy in sorted(self._policies.items()):
            if policy.quota_bytes is not None:
                sc.memory_manager.set_tenant_quota(tenant, policy.quota_bytes)
        self.cache = ResultCache(
            self.config.cache_entries, sc.memory_manager, self.metrics
        )
        sc.memory_manager.add_squeeze_listener(self.cache.on_squeeze)
        self.breaker = CircuitBreaker(self.metrics)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="solver-service", daemon=True
        )
        self._dispatcher.start()

    # -- client surface ------------------------------------------------

    def solve(
        self,
        request: SolveRequest,
        timeout: float | None = None,
        *,
        wire: dict[str, Any] | None = None,
    ) -> SolveResponse:
        """Admit, run (or coalesce/serve from cache), and wait."""
        return self.submit(request, wire=wire).result(timeout)

    def submit(
        self,
        request: SolveRequest,
        *,
        wire: dict[str, Any] | None = None,
        _replay: bool = False,
    ) -> SolveTicket:
        """Admit a request; returns immediately with a ticket.

        Raises :class:`ServiceOverloadedError` when admission control
        sheds the request (critical memory pressure, or the bounded
        queue is full) and :class:`ServiceDrainingError` once the
        service is draining for shutdown.  Cache hits and coalesced
        requests bypass admission — they cost no engine pass, so
        shedding them would only waste work already done.

        ``wire`` is the JSON-safe payload a restarted process could
        rebuild this request from; when the service has a
        :class:`RequestJournal` attached, admissions carrying one are
        fsync-journaled before the ticket is returned.  A request whose
        idempotency key the journal has already *settled* (a client
        reconnecting across a restart) is served the original result
        directly from the durable spool — no admission, no engine pass.
        ``_replay`` marks resume-driven re-submissions, which are
        already in the WAL and must not be re-appended.

        A request whose :meth:`~SolveRequest.identity` the cache already
        knows takes its fingerprint from the cache's identity map, so a
        hit never builds (or hashes) a wire request's table; any other
        request computes it from the table.  Either way the fingerprint
        is the same string and everything below is one path.
        """
        if request.deadline is None and self.config.default_deadline is not None:
            request = replace(request, deadline=self.config.default_deadline)
        identity = request.identity()
        fingerprint = (
            self.cache.fingerprint_of(identity) if identity is not None else None
        )
        if fingerprint is None:
            fingerprint = request.fingerprint()
        deadline_at = (
            time.monotonic() + request.deadline
            if request.deadline is not None
            else None
        )
        with self._lock:
            if self._stopped:
                raise RuntimeError("SolverService is stopped")
            with self._metrics_lock:
                self.metrics.requests_received += 1
                self.metrics.tenant_event(request.tenant, "requests")
            if self._draining:
                with self._metrics_lock:
                    self.metrics.requests_shed += 1
                    self.metrics.draining_sheds += 1
                    self.metrics.tenant_event(request.tenant, "sheds")
                raise ServiceDrainingError(
                    "service is draining for shutdown; retry against the "
                    "restarted instance",
                    retry_after=self.drain_retry_after,
                )
            replayed = self._settled_replay_locked(request, fingerprint, deadline_at)
            if replayed is not None:
                return replayed
            hit = self.cache.get(fingerprint, identity)
            if hit is not None:
                with self._metrics_lock:
                    self.metrics.requests_admitted += 1
                    self.metrics.tenant_event(request.tenant, "cache_hits")
                ticket = SolveTicket(self, request, fingerprint, deadline_at)
                key = request.idempotency_key
                if _replay or (
                    key is not None
                    and self._journal is not None
                    and self._journal.is_inflight(key)
                ):
                    # The WAL already names this key in-flight (a resume
                    # replay, or a keyed retry racing one): attach the
                    # key so the cache-served fulfilment durably settles
                    # it — otherwise the admission replays forever.
                    ticket.journal_key = self._journal_admit(
                        request, fingerprint, wire, _replay
                    )
                ticket._fulfill(*hit, from_cache=True)
                return ticket
            flight = self._inflight.get(fingerprint)
            if flight is not None and not flight.done:
                with self._metrics_lock:
                    self.metrics.requests_admitted += 1
                    self.metrics.single_flight_coalesced += 1
                ticket = SolveTicket(self, request, fingerprint, deadline_at)
                ticket.coalesced = True
                ticket.journal_key = self._journal_admit(
                    request, fingerprint, wire, _replay
                )
                flight.waiters.append(ticket)
                return ticket
            # Only requests that would create a NEW flight (a real
            # engine pass) face the isolation gates below — cache hits
            # and coalesces above cost nothing extra, and replays are
            # journaled work the WAL already committed to running.
            self._evaluate_brownout_locked()
            if not _replay:
                self._rate_gate_locked(request.tenant)
                self._brownout_gate_locked(request.tenant)
            charge = self._charge_tenant_locked(request, force=_replay)
            try:
                self._admit_locked(fingerprint)
            except ServiceOverloadedError:
                self._release_tenant_charge(request.tenant, charge)
                with self._metrics_lock:
                    self.metrics.tenant_event(request.tenant, "sheds")
                raise
            ticket = SolveTicket(self, request, fingerprint, deadline_at)
            ticket.journal_key = self._journal_admit(
                request, fingerprint, wire, _replay
            )
            flight = _Flight(fingerprint, tenant=request.tenant)
            flight.charge = charge
            flight.waiters.append(ticket)
            self._inflight[fingerprint] = flight
            self._queue.push(flight.tenant, flight)
            self._work.notify_all()
            return ticket

    def _settled_replay_locked(
        self,
        request: SolveRequest,
        fingerprint: str,
        deadline_at: float | None,
    ) -> SolveTicket | None:
        """Serve a journal-settled idempotency key, or None to admit.

        Only *completed* settles short-circuit: a key that settled as
        failed or deadline-cancelled is a legitimate retry target, so it
        falls through to a fresh admission (which supersedes the old
        settle in the journal's per-key state).
        """
        key = request.idempotency_key
        if key is None or self._journal is None:
            return None
        settled = self._journal.settled_lookup(key)
        if settled is None or settled.get("outcome") != "completed":
            return None
        result = self._journal.settled_result(settled)
        if result is None:
            return None  # spool pruned/corrupt: run it again
        with self._metrics_lock:
            self.metrics.requests_admitted += 1
            self.metrics.idempotent_replays += 1
            self.metrics.tenant_event(request.tenant, "cache_hits")
        ticket = SolveTicket(
            self, request, settled.get("fingerprint") or fingerprint, deadline_at
        )
        # settled_result verified the bytes against the record's checksum
        checksum = settled.get("result_check") or _checksum(result)
        ticket._fulfill(result, checksum, from_cache=True)
        return ticket

    def _journal_admit(
        self,
        request: SolveRequest,
        fingerprint: str,
        wire: dict[str, Any] | None,
        replayed: bool,
    ) -> str | None:
        """Append one admission to the WAL; returns its key (or None).

        Admissions without a wire payload are not journaled — a crash
        could not replay them anyway (in-process requests carry live
        spec/kernel/table objects).  Keys already named in-flight by the
        WAL are not re-appended: that is a resume replay, or a client
        retrying across a restart racing the replay — either way the
        admission is already durable and the fingerprint single-flight
        above coalesces the work.
        """
        if self._journal is None or wire is None:
            return None
        key = request.idempotency_key
        if key is None:
            # Server-generated key: journaled crash recovery still works
            # (replay is keyed by the record, not the client), clients
            # just cannot reclaim the settle without the key.
            key = f"auto:{fingerprint[:16]}:{next(self._auto_keys)}"
        if replayed or self._journal.is_inflight(key):
            if not replayed:
                with self._metrics_lock:
                    self.metrics.resume_coalesced += 1
            return key
        payload = dict(wire)
        payload["idempotency_key"] = key
        self._journal.admit(
            key,
            fingerprint,
            payload,
            deadline=request.deadline,
            tenant=request.tenant,
        )
        return key

    def _journal_settle(
        self,
        ticket: SolveTicket,
        outcome: str,
        *,
        result: np.ndarray | None = None,
        checksum: str | None = None,
        error: BaseException | None = None,
    ) -> None:
        if self._journal is None or ticket.journal_key is None:
            return
        self._journal.settle(
            ticket.journal_key,
            outcome,
            fingerprint=ticket.fingerprint,
            result=result,
            checksum=checksum,
            error=error,
        )

    # -- tenant isolation gates (DESIGN.md §18) ------------------------

    def _policy(self, tenant: str | None) -> TenantPolicy | None:
        return self._policies.get(tenant) if tenant is not None else None

    def _weight(self, tenant: str | None) -> int:
        policy = self._policy(tenant)
        return (
            policy.weight
            if policy is not None
            else self.default_tenant_weight
        )

    def _rate_gate_locked(self, tenant: str | None) -> None:
        """Token-bucket admission rate limit (per-tenant, opt-in)."""
        policy = self._policy(tenant)
        if policy is None or policy.rate is None:
            return
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets[tenant] = TokenBucket(
                policy.rate, policy.burst
            )
        if bucket.try_take():
            return
        with self._metrics_lock:
            self.metrics.rate_limited += 1
            self.metrics.tenant_event(tenant, "rate_limited")
        raise TenantQuotaExceededError(
            f"tenant {tenant!r} is over its admission rate "
            f"({policy.rate:g} req/s, burst {policy.burst})",
            tenant=tenant,
            retry_after=max(bucket.retry_after(), 0.001),
        )

    def _brownout_gate_locked(self, tenant: str | None) -> None:
        """At the ladder's ``shed`` rung, refuse lowest-weight tenants.

        "Lowest" is relative to the tenants currently holding queued
        work: a request is shed only when some *heavier* tenant is
        waiting (equal weights shed nobody here — the plain admission
        gates still apply to everyone).
        """
        if not self.config.brownout or self.ladder.level < 2:
            return
        weight = self._weight(tenant)
        contenders = set(self._queue.tenants()) | {tenant}
        if weight >= max(self._weight(t) for t in contenders):
            return
        with self._metrics_lock:
            self.metrics.requests_shed += 1
            self.metrics.brownout_sheds += 1
            self.metrics.tenant_event(tenant, "sheds")
        raise ServiceOverloadedError(
            f"brownout shed: tenant {tenant!r} (weight {weight}) yields "
            f"to heavier queued tenants",
            level="brownout",
            queue_depth=len(self._queue),
            retry_after=self.shed_retry_after,
        )

    def _charge_tenant_locked(
        self, request: SolveRequest, *, force: bool = False
    ) -> int:
        """Reserve the flight's in-flight quota estimate; returns bytes.

        The estimate is ``table.nbytes × tenant_charge_factor`` (see
        :class:`ServiceConfig`).  A breach raises the typed retryable
        error at *this* tenant and touches nobody else's state.
        ``force`` is the resume path: replayed admissions were already
        accepted once, so they charge unconditionally.
        """
        tenant = request.tenant
        mm = self.sc.memory_manager
        if tenant is None:
            return 0
        charge = int(request.table.nbytes) * self.tenant_charge_factor
        if mm.charge_tenant(tenant, charge, force=force):
            return charge
        usage = mm.tenant_usage().get(tenant, {})
        with self._metrics_lock:
            self.metrics.quota_rejections += 1
            self.metrics.tenant_event(tenant, "quota_rejections")
        raise TenantQuotaExceededError(
            f"tenant {tenant!r} quota exceeded: holds "
            f"{usage.get('held_bytes', 0)} of {usage.get('quota_bytes')} "
            f"bytes; this flight needs {charge} more",
            tenant=tenant,
            used_bytes=usage.get("held_bytes", 0),
            quota_bytes=usage.get("quota_bytes"),
            retry_after=self.shed_retry_after,
        )

    def _release_tenant_charge(self, tenant: str | None, charge: int) -> None:
        if tenant is None or charge == 0:
            return
        self.sc.memory_manager.release_tenant(tenant, charge)

    def _evaluate_brownout_locked(self) -> int:
        """Advance the ladder from (pressure, queue depth); meter it."""
        if not self.config.brownout:
            return 0
        level = self.sc.memory_manager.pressure()
        depth = len(self._queue) + (1 if self._running is not None else 0)
        transition = self.ladder.evaluate(level, depth)
        if transition is not None:
            with self._metrics_lock:
                self.metrics.brownout_transitions.append(transition)
                self.metrics.brownout_transition_count += 1
                self.metrics.brownout_level = self.ladder.name
        return self.ladder.level

    def _admit_locked(self, fingerprint: str) -> None:
        level = self.sc.memory_manager.pressure()
        depth = len(self._queue) + (1 if self._running is not None else 0)
        if level == PRESSURE_CRITICAL:
            with self._metrics_lock:
                self.metrics.requests_shed += 1
            raise ServiceOverloadedError(
                "shedding new work: memory pressure is critical",
                level=level,
                queue_depth=depth,
                retry_after=self.shed_retry_after,
            )
        limit = self.config.max_queue_depth
        if level != PRESSURE_OK:
            limit = max(1, limit // 2)
        if depth >= limit:
            with self._metrics_lock:
                self.metrics.requests_shed += 1
            raise ServiceOverloadedError(
                f"request queue full ({depth} >= {limit} under {level} pressure)",
                level=level,
                queue_depth=depth,
                retry_after=self.shed_retry_after,
            )
        with self._metrics_lock:
            self.metrics.requests_admitted += 1
            if depth > 0:
                self.metrics.requests_queued += 1

    # -- dispatcher ----------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not len(self._queue) and not self._stopped:
                    self._work.wait()
                if not len(self._queue) and self._stopped:
                    return
                flight = self._queue.pop()
                self._running = flight
                # Re-evaluate the ladder at dispatch too: during a long
                # quiet stretch no submit() would ever step it back down
                # (or up, as the backlog it left behind drains).
                self._evaluate_brownout_locked()
            try:
                self._run_flight(flight)
            finally:
                with self._lock:
                    self._running = None

    def _run_flight(self, flight: _Flight) -> None:
        cfg = self.config
        request = flight.waiters[0].request
        last_exc: BaseException | None = None
        for attempt in range(1, cfg.retries + 2):
            deadline_at = flight.deadline_at()
            if deadline_at is not None and time.monotonic() >= deadline_at:
                last_exc = RequestDeadlineExceeded(
                    "request deadline expired before the engine pass could run",
                    deadline=request.deadline,
                    elapsed=time.monotonic() - flight.waiters[0]._t0,
                )
                break
            offloaded = (
                self.sc.backend == "processes" and self.breaker.allow_offload()
            )
            try:
                result = self._run_engine_pass(
                    request, deadline_at, offload=offloaded
                )
            except RequestDeadlineExceeded as exc:
                last_exc = exc
                break  # budget spent; retrying cannot help
            except SERVICE_RETRYABLE as exc:
                last_exc = exc
                if _breaker_fault(exc):
                    self.breaker.record_failure(offloaded=offloaded)
                if attempt <= cfg.retries:
                    with self._metrics_lock:
                        self.metrics.retries += 1
                    time.sleep(
                        min(
                            self.retry_backoff_base * (2 ** (attempt - 1)),
                            self.retry_backoff_cap,
                        )
                    )
                continue
            except BaseException as exc:  # noqa: BLE001 — typed to the client
                last_exc = exc
                break
            else:
                self.breaker.record_success(offloaded=offloaded)
                self._finish_flight(flight, result)
                return
        assert last_exc is not None
        self._fail_flight(flight, last_exc)

    def _run_engine_pass(
        self, request: SolveRequest, deadline_at: float | None, *, offload: bool
    ) -> np.ndarray:
        """One solver pass with deadline plumbing and state reclamation.

        The request deadline reaches two layers through
        ``set_job_deadline``: the scheduler checks it at stage and
        attempt boundaries (cheap, cooperative), and — for offloaded
        passes — the process backend caps every offload wait at it, so
        a kernel stuck in a worker is SIGKILLed and reaped by the PR 5
        crash protocol instead of outliving the request.  Safe to mutate shared context state here because
        passes are serialized on the dispatcher thread; everything is
        restored in ``finally``.
        """
        sc = self.sc
        with self._metrics_lock:
            self.metrics.engine_passes += 1
            self.metrics.tenant_event(request.tenant, "engine_passes")
            if sc.backend == "processes" and not offload:
                self.metrics.circuit_failovers += 1
        # Brownout effect, applied per pass from the ladder's current
        # rung: at ``degrade`` and above IM requests are served on the
        # CB strategy (the PR 3 latch: bit-identical output,
        # shared-storage staging instead of governed shuffle pools).
        brownout = self.ladder.level if self.config.brownout else 0
        if brownout >= 1 and request.strategy == "im":
            request = replace(request, strategy="cb")
            with self._metrics_lock:
                self.metrics.brownout_degrades += 1
        sc._scheduler.set_job_deadline(deadline_at)
        try:
            return self._solve(request, offload)
        finally:
            sc._scheduler.set_job_deadline(None)
            sc.reclaim_solve_state()

    def _solve(self, request: SolveRequest, offload: bool) -> np.ndarray:
        """Build a solver on the shared context and run it (test seam)."""
        from .core.dpspark import GepSparkSolver

        solver = GepSparkSolver(
            request.spec,
            self.sc,
            r=request.r,
            kernel=request.kernel,
            strategy=request.strategy,
            collect_stats=False,
        )
        if not offload:
            solver.disable_offload()
        result, _report = solver.solve(request.table)
        return result

    def _finish_flight(self, flight: _Flight, result: np.ndarray) -> None:
        # The result is hashed once: the cache entry, the journal's
        # settle records and every waiter's reply share this checksum.
        checksum = _checksum(result)
        with self._lock:
            identities = [t.request.identity() for t in flight.waiters]
        # Cache before unpublishing the flight: a racing duplicate either
        # coalesces (pre-removal) or hits the cache (post-removal) — it
        # never slips between the two into a redundant engine pass.
        self.cache.put(
            flight.fingerprint,
            result,
            tenant=flight.tenant,
            checksum=checksum,
            identities=identities,
        )
        self._release_flight_charge(flight)
        with self._lock:
            flight.done = True
            if self._inflight.get(flight.fingerprint) is flight:
                del self._inflight[flight.fingerprint]
            waiters = list(flight.waiters)
        for ticket in waiters:
            ticket._fulfill(result, checksum)

    def _fail_flight(self, flight: _Flight, exc: BaseException) -> None:
        self._release_flight_charge(flight)
        with self._lock:
            flight.done = True
            if self._inflight.get(flight.fingerprint) is flight:
                del self._inflight[flight.fingerprint]
            waiters = list(flight.waiters)
        for ticket in waiters:
            ticket._fail(exc)

    def _release_flight_charge(self, flight: _Flight) -> None:
        """Return the flight's in-flight quota bytes exactly once."""
        charge, flight.charge = flight.charge, 0
        self._release_tenant_charge(flight.tenant, charge)

    def _note_input_built(self) -> None:
        """A wire request's table was generated (``_build_request``)."""
        with self._metrics_lock:
            self.metrics.inputs_built += 1

    # -- lifecycle -----------------------------------------------------

    def drain(self) -> None:
        """Flip admission to shedding; in-flight work runs to settlement.

        The first phase of graceful shutdown (DESIGN.md §16): new
        submissions raise a retryable :class:`ServiceDrainingError`
        carrying ``drain_retry_after``, while queued and running flights
        finish (or deadline-cancel through the normal kill/reap
        machinery).  Idempotent.  Call :meth:`stop` afterwards to join
        the dispatcher and checkpoint the journal.
        """
        with self._lock:
            self._draining = True

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def resume(self) -> list[SolveTicket]:
        """Hot-restart recovery: rehydrate the cache, replay the WAL.

        Two phases (DESIGN.md §16).  First every readable spooled result
        is pushed into the :class:`ResultCache` (charged to the storage
        pool like any other entry — a squeeze can still evict it).  Then
        each incomplete WAL admission is rebuilt from its wire payload
        and re-submitted through the *normal* admission path: deadlines
        are re-clamped to the budget remaining since the recorded
        wall-clock admission time (an admission whose budget is already
        spent settles ``deadline-cancelled`` without an engine pass),
        duplicate keys across restarts coalesce via the per-key WAL
        state, and duplicate fingerprints coalesce via single-flight.

        Returns the replay tickets; no client waits on them directly —
        reconnecting clients land on the same flights through their
        idempotency keys, or on the settled results afterwards.  Call
        before :func:`serve_forever` binds the socket.
        """
        if self._journal is None:
            raise RuntimeError("resume() requires a RequestJournal")
        for fingerprint, array in self._journal.spooled():
            if self.cache.put(fingerprint, array):
                with self._metrics_lock:
                    self.metrics.results_rehydrated += 1
        tickets: list[SolveTicket] = []
        now = time.time()
        for record in self._journal.incomplete():
            payload = dict(record.get("payload") or {})
            key = record["key"]
            deadline = record.get("deadline")
            if deadline is not None:
                elapsed = max(0.0, now - float(record.get("admitted_unix") or now))
                remaining = float(deadline) - elapsed
                if remaining <= 0:
                    exc = RequestDeadlineExceeded(
                        "request deadline expired while the service was down",
                        deadline=deadline,
                        elapsed=elapsed,
                    )
                    self._journal.settle(
                        key,
                        "deadline-cancelled",
                        fingerprint=record.get("fingerprint"),
                        error=exc,
                    )
                    with self._metrics_lock:
                        self.metrics.deadline_cancelled += 1
                    continue
                payload["deadline"] = remaining
            payload["idempotency_key"] = key
            request = _build_request(payload, on_build=self._note_input_built)
            while True:
                try:
                    ticket = self.submit(request, wire=payload, _replay=True)
                    break
                except ServiceOverloadedError as exc:
                    # Replay must not lose journaled work to its own
                    # burst; trickle it in as the queue frees up.
                    time.sleep(exc.retry_after or 0.05)
            with self._metrics_lock:
                self.metrics.journal_replayed += 1
            tickets.append(ticket)
        return tickets

    def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the service; by default drains queued flights first.

        With ``drain=False`` queued flights fail immediately with a
        retryable :class:`ServiceOverloadedError`.  Always releases the
        cache's storage-pool reservations and detaches the squeeze
        listener, so a stopped service leaves the context's memory
        accounting exactly as it found it.
        """
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            aborted = self._queue.drain() if not drain else []
            self._work.notify_all()
        for flight in aborted:
            self._fail_flight(
                flight,
                ServiceOverloadedError(
                    "service stopped before this request ran",
                    queue_depth=0,
                    retry_after=None,
                ),
            )
        self._dispatcher.join(timeout=timeout)
        if self._dispatcher.is_alive():  # pragma: no cover — deadlock guard
            raise RuntimeError("service dispatcher failed to stop")
        self.sc.memory_manager.remove_squeeze_listener(self.cache.on_squeeze)
        self.cache.clear()
        if self._journal is not None:
            # Every flight has settled; checkpoint the WAL down to the
            # serviceable remainder so the next start replays no history.
            self._journal.compact()

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# -- request-storm chaos driver ---------------------------------------


def run_request_storm(
    service: SolverService,
    make_request: Callable[[int, int], SolveRequest],
    *,
    clients: int = 16,
    requests_per_client: int = 2,
    plan=None,
    tight_deadline: float = 0.005,
    timeout: float = 120.0,
    on_driver_kill: Callable[[int, int], None] | None = None,
) -> list[dict[str, Any]]:
    """Drive ``clients`` concurrent threads through the service.

    ``make_request(client, seq)`` builds each base request; a
    ``request_storm`` fault plan may twist individual requests into a
    ``duplicate`` of the client's previous one (exercising
    single-flight/cache paths) or clamp on a ``tight_deadline``
    (exercising mid-flight cancellation), both decided by the seeded
    BLAKE2b contract so storms replay exactly.

    A plan arming ``driver_kill`` additionally consults
    :meth:`~repro.sparkle.chaos.FaultPlan.driver_kill` before each
    request and invokes ``on_driver_kill(client, seq)`` when it fires —
    the harness's hook to murder (or drain) the service at a seeded
    point mid-storm.  The client then proceeds to submit into whatever
    wreckage the hook left, which is exactly the point.

    Returns one outcome dict per request: ``{"client", "seq", "twist",
    "ok", "response" | "error", "retryable"}``.  Raises if any client
    thread fails to finish within ``timeout`` — the storm's deadlock
    detector.
    """
    outcomes: list[list[dict[str, Any]]] = [[] for _ in range(clients)]
    barrier = threading.Barrier(clients)

    def client_loop(client: int) -> None:
        barrier.wait(timeout=timeout)
        previous: SolveRequest | None = None
        for seq in range(requests_per_client):
            if (
                plan is not None
                and on_driver_kill is not None
                and plan.driver_kill(client, seq)
            ):
                on_driver_kill(client, seq)
            twist = plan.request_fault(client, seq) if plan is not None else None
            request = make_request(client, seq)
            if twist == "duplicate" and previous is not None:
                request = previous
            elif twist == "tight_deadline":
                request = replace(request, deadline=tight_deadline)
            previous = request
            record: dict[str, Any] = {
                "client": client,
                "seq": seq,
                "twist": twist,
                "fingerprint": request.fingerprint(),
            }
            try:
                record["response"] = service.solve(request, timeout=timeout)
                record["ok"] = True
            except BaseException as exc:  # noqa: BLE001 — recorded, asserted on
                record["ok"] = False
                record["error"] = exc
                record["retryable"] = is_retryable(exc)
            outcomes[client].append(record)

    threads = [
        threading.Thread(
            target=client_loop, args=(c,), name=f"storm-client-{c}", daemon=True
        )
        for c in range(clients)
    ]
    for t in threads:
        t.start()
    deadline = time.monotonic() + timeout
    for t in threads:
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    stuck = [t.name for t in threads if t.is_alive()]
    if stuck:
        raise TimeoutError(f"request storm deadlocked; stuck clients: {stuck}")
    return [record for per_client in outcomes for record in per_client]


def run_noisy_neighbor_storm(
    service: SolverService,
    make_request: Callable[[str, int], SolveRequest],
    *,
    hog: str = "hog",
    victims: tuple[str, ...] = ("victim",),
    requests_per_tenant: int = 4,
    plan=None,
    max_retries: int = 12,
    timeout: float = 120.0,
    on_driver_kill: Callable[[int, int], None] | None = None,
) -> dict[str, list[dict[str, Any]]]:
    """Tenant-isolation chaos soak: one hog tenant vs N victims.

    One client thread per tenant drives ``requests_per_tenant`` solves
    built by ``make_request(tenant, seq)`` — which must vary the
    workload by both arguments, so nothing coalesces across tenants and
    every completed request is a real engine pass the fairness
    assertions can count.  Clients are *pipelined*: each thread submits
    all its requests up front, then awaits them in order — so every
    tenant holds a standing backlog in the DRR queue and the dispatch
    share under contention is the weighted share, observable per pass.
    (A synchronous client re-joins the rotation behind the hog after
    every settle and measures queue latency, not fairness.)  A plan
    arming ``noisy_neighbor`` makes the *hog* thread consult
    :meth:`~repro.sparkle.chaos.FaultPlan.noisy_neighbor` before each
    scheduled request and fire that many extra distinct solves first
    (awaited at the end) — the seeded saturation the weighted-DRR/
    quota/brownout plane must absorb.  ``driver_kill`` composes exactly
    as in :func:`run_request_storm` (client index: hog=0, victims
    from 1).

    Every thread retries typed retryable refusals (sheds, quota, rate)
    honoring ``retry_after`` up to ``max_retries`` times, so the record
    distinguishes "slowed down" from "starved out".  Returns
    ``tenant -> [outcome, ...]`` where each outcome carries ``seq``,
    ``ok``, ``response``/``error``, ``retries``, and ``burst`` (hog
    rows: extras injected before that request).
    """
    tenants = (hog,) + tuple(victims)
    outcomes: dict[str, list[dict[str, Any]]] = {t: [] for t in tenants}
    burst_tickets: list[SolveTicket] = []
    burst_lock = threading.Lock()
    barrier = threading.Barrier(len(tenants))
    _RETRYABLE = (
        ServiceOverloadedError,
        TenantQuotaExceededError,
        ServiceDrainingError,
    )

    def submit_with_retry(
        record: dict[str, Any], request: SolveRequest
    ) -> SolveTicket | None:
        """Admit one request, honoring retry_after; None once starved."""
        while True:
            try:
                return service.submit(request)
            except _RETRYABLE as exc:
                if record["retries"] >= max_retries:
                    record.update(ok=False, error=exc)
                    return None
                record["retries"] += 1
                time.sleep(getattr(exc, "retry_after", None) or 0.05)
            except BaseException as exc:  # noqa: BLE001 — recorded, asserted on
                record.update(ok=False, error=exc)
                return None

    def tenant_loop(index: int, tenant: str) -> None:
        barrier.wait(timeout=timeout)
        extra_seq = itertools.count(requests_per_tenant)
        pending: list[tuple[dict[str, Any], SolveRequest, SolveTicket | None]] = []
        for seq in range(requests_per_tenant):
            if (
                plan is not None
                and on_driver_kill is not None
                and plan.driver_kill(index, seq)
            ):
                on_driver_kill(index, seq)
            burst = 0
            if tenant == hog and plan is not None:
                burst = plan.noisy_neighbor(index, seq)
                for _ in range(burst):
                    try:
                        ticket = service.submit(
                            make_request(tenant, next(extra_seq))
                        )
                    except _RETRYABLE:
                        continue  # a refused burst extra is the point
                    with burst_lock:
                        burst_tickets.append(ticket)
            record: dict[str, Any] = {
                "tenant": tenant, "seq": seq, "burst": burst, "retries": 0,
            }
            request = make_request(tenant, seq)
            pending.append((record, request, submit_with_retry(record, request)))
            outcomes[tenant].append(record)
        for record, request, ticket in pending:
            while ticket is not None:
                try:
                    record["response"] = ticket.result(timeout=timeout)
                    record["ok"] = True
                    break
                except _RETRYABLE as exc:
                    if record["retries"] >= max_retries:
                        record.update(ok=False, error=exc)
                        break
                    record["retries"] += 1
                    time.sleep(getattr(exc, "retry_after", None) or 0.05)
                    ticket = submit_with_retry(record, request)
                except BaseException as exc:  # noqa: BLE001 — recorded below
                    record.update(ok=False, error=exc)
                    break

    threads = [
        threading.Thread(
            target=tenant_loop,
            args=(i, t),
            name=f"tenant-{t}",
            daemon=True,
        )
        for i, t in enumerate(tenants)
    ]
    for t in threads:
        t.start()
    deadline = time.monotonic() + timeout
    for t in threads:
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    stuck = [t.name for t in threads if t.is_alive()]
    if stuck:
        raise TimeoutError(f"noisy-neighbor storm deadlocked; stuck: {stuck}")
    for ticket in burst_tickets:
        try:
            ticket.result(timeout=max(0.0, deadline - time.monotonic()))
        except BaseException:  # noqa: BLE001 — burst extras may fail freely
            pass
    return outcomes


# -- Unix-socket serving (repro serve / repro request) -----------------

_LEN = struct.Struct(">Q")


def _send_msg(sock: socket.socket, obj: Any) -> None:
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_LEN.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        chunk = sock.recv(min(n, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed mid-message")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _recv_msg(sock: socket.socket, max_bytes: int | None = None) -> Any:
    """Read one length-prefixed pickle frame, refusing oversized ones.

    The length is checked *before* any payload byte is read: a hostile
    or corrupt 8-byte header must not be able to make the server
    allocate (or slowly stream) an unbounded buffer.
    """
    (length,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
    if max_bytes is not None and length > max_bytes:
        raise FrameTooLargeError(
            f"frame announces {length} bytes; this server caps frames at "
            f"{max_bytes} bytes",
            length=length,
            limit=max_bytes,
        )
    return pickle.loads(_recv_exact(sock, length))


class _GeneratedTable:
    """A wire request's input, named by its generator parameters.

    ``make_problem`` gives the same bytes for the same arguments, so
    ``key`` stands for the table.  The table is generated on the first
    :meth:`get` and shared by every request copied from the one holding
    this object (``dataclasses.replace`` passes it along).  Pickles as
    its key alone.
    """

    __slots__ = ("key", "_on_build", "_table", "_lock")

    def __init__(
        self,
        key: tuple[str, int, int, float],
        on_build: Callable[[], None] | None = None,
    ) -> None:
        #: ``make_problem``'s ``(problem, n, seed, density)``
        self.key = key
        self._on_build = on_build
        self._table: np.ndarray | None = None
        self._lock = threading.Lock()

    def get(self) -> np.ndarray:
        with self._lock:
            if self._table is None:
                from .workloads import make_problem

                _spec, self._table = make_problem(*self.key)
                if self._on_build is not None:
                    self._on_build()
            return self._table

    def __reduce__(self):
        return (_GeneratedTable, (self.key,))


@dataclass
class _WireRequest(SolveRequest):
    """A socket-plane request whose table is generated on first use.

    ``table`` is no constructor field here, so neither ``__post_init__``
    nor ``dataclasses.replace`` nor pickling reads it; the first read
    generates it through ``source``.
    """

    table: np.ndarray = field(init=False, repr=False, compare=False)
    source: _GeneratedTable = field(kw_only=True, repr=False, compare=False)

    def __getattr__(self, name: str) -> Any:
        # Reached only for attributes the instance lacks: ``table`` is
        # never stored on it, every read goes to the shared source.
        if name != "table":
            raise AttributeError(name)
        return self.source.get()

    def _check_table(self) -> None:
        """``make_problem`` tables are square and NaN-free (tested)."""

    def identity(self) -> Hashable:
        return (
            self.source.key,
            self.r,
            self.strategy,
            tuple(sorted(self.kernel.describe().items())),
        )


def _build_request(
    payload: dict[str, Any],
    max_frame_bytes: int | None = None,
    *,
    on_build: Callable[[], None] | None = None,
) -> SolveRequest:
    """Turn a wire payload into a SolveRequest without building its table.

    The wire format names a problem + generator seed rather than
    shipping the table, so identical payloads hash to identical
    fingerprints on the server and dedup/caching work across clients.
    The request keeps those parameters as its
    :meth:`~SolveRequest.identity` and generates the table on first
    use: the fingerprint of an identity the cache does not know (a
    miss), a tenant charge, the engine pass, a journal replay, or a
    caller reading ``.table`` or ``.fingerprint()``.  A cache hit
    resolved by identity builds nothing.  ``on_build`` is called once,
    when the table is generated.

    ``n`` comes from outside: a request whose ``n x n`` result could not
    be framed under ``max_frame_bytes`` is refused before any table is
    generated (allocation-bomb guard, like the frame-length check).
    """
    from .core.dpspark import make_kernel
    from .workloads import PROBLEM_SPECS

    problem = payload["problem"]
    if problem not in PROBLEM_SPECS:
        raise ValueError(f"unknown problem {problem!r}")
    n = int(payload["n"])
    spec = PROBLEM_SPECS[problem]()
    if max_frame_bytes is not None:
        result_bytes = n * n * np.dtype(spec.dtype).itemsize
        if result_bytes > max_frame_bytes:
            raise ValueError(
                f"n={n}: the {result_bytes}-byte result exceeds this "
                f"server's {max_frame_bytes}-byte frame cap"
            )
    return _WireRequest(
        spec=spec,
        r=int(payload.get("r", 4)),
        kernel=make_kernel(spec, "iterative"),
        strategy=payload.get("strategy", "im"),
        deadline=payload.get("deadline"),
        client=payload.get("client", "socket"),
        request_id=payload.get("request_id"),
        tenant=payload.get("tenant"),
        idempotency_key=payload.get("idempotency_key"),
        source=_GeneratedTable(
            (
                problem,
                n,
                int(payload.get("seed", 0)),
                float(payload.get("density", 0.35)),
            ),
            on_build,
        ),
    )


#: Wire-payload keys that fully determine a rebuildable request — what
#: the request journal persists.  Transport-only keys (``timeout``,
#: ``return_result``, ``op``) deliberately stay out: they shape the
#: reply, not the work, and a replay has no client to reply to.
_WIRE_KEYS = (
    "problem",
    "n",
    "seed",
    "density",
    "r",
    "strategy",
    "deadline",
    "client",
    "request_id",
    "tenant",
    "idempotency_key",
)


def _journal_payload(payload: dict[str, Any]) -> dict[str, Any]:
    """The JSON-safe replayable core of a wire payload."""
    return {
        key: payload[key] for key in _WIRE_KEYS if payload.get(key) is not None
    }


def _reclaim_stale_socket(socket_path: str, service: SolverService) -> None:
    """Reclaim a socket file left behind by a SIGKILLed server.

    A dead server cannot unlink its socket; the file keeps existing and
    every connect gets ``ConnectionRefusedError`` forever.  Probe it: no
    listener → unlink and take the address; a live listener answers the
    connect → refuse to bind on top of a running service.
    """
    if not os.path.exists(socket_path):
        return
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(0.5)
    alive = False
    try:
        probe.connect(socket_path)
        alive = True
    except OSError:
        pass
    finally:
        probe.close()
    if alive:
        raise OSError(
            f"socket {socket_path} already has a live service listening"
        )
    os.unlink(socket_path)
    with service._metrics_lock:
        service.metrics.stale_sockets_reclaimed += 1


def serve_forever(
    service: SolverService,
    socket_path: str,
    *,
    max_requests: int | None = None,
    ready: threading.Event | None = None,
    max_frame_bytes: int | None = None,
    install_signal_handlers: bool | None = None,
) -> int:
    """Accept loop: one connection = one request = one reply.

    Replies are ``{"status": "ok", ...summary...}`` (plus the result
    array when the payload asks ``return_result``) or ``{"status":
    "error", "error": <pickled typed exception>, "retryable": bool}``.
    ``max_requests`` bounds the loop for tests; returns requests served.

    Per-connection failures — oversized frames, clients torn away
    mid-frame or mid-reply — are metered and answered (when possible)
    on that connection only; nothing a single client does can kill the
    accept loop.

    Shutdown follows the §16 drain sequence.  SIGTERM/SIGINT (handlers
    installed when running on the main thread, unless
    ``install_signal_handlers=False``) flip the service to draining —
    new admissions shed with :class:`ServiceDrainingError` — and close
    the listener, so late clients fail fast instead of hanging on a
    half-dead server.  Accepted connections are then joined (their
    flights finish or deadline-cancel), the request journal is
    checkpointed, and the socket file is unlinked last.  The caller
    tears down the service and context only after this returns.
    """
    if max_frame_bytes is None:
        max_frame_bytes = service.config.max_frame_bytes
    _reclaim_stale_socket(socket_path, service)
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    served = 0
    handlers: list[threading.Thread] = []
    stopping = threading.Event()

    def begin_drain(signum=None, frame=None):
        service.drain()
        stopping.set()
        # Closing the listener pops accept() out with OSError and makes
        # connects fail fast while in-flight work settles.
        server.close()

    installed: list[tuple[int, Any]] = []
    if install_signal_handlers is None:
        install_signal_handlers = (
            threading.current_thread() is threading.main_thread()
        )
    if install_signal_handlers:
        for sig in (signal.SIGTERM, signal.SIGINT):
            installed.append((sig, signal.signal(sig, begin_drain)))
    try:
        server.bind(socket_path)
        server.listen(16)
        if ready is not None:
            ready.set()
        while (max_requests is None or served < max_requests) and not stopping.is_set():
            try:
                conn, _ = server.accept()
            except OSError:
                break  # listener closed by begin_drain
            served += 1
            handlers = [t for t in handlers if t.is_alive()]
            t = threading.Thread(
                target=_handle_conn,
                args=(service, conn, max_frame_bytes),
                daemon=True,
            )
            t.start()
            handlers.append(t)
        # Every accepted request gets its reply before teardown — both
        # for bounded test runs and for the drain path.
        for t in handlers:
            t.join()
        if service._journal is not None:
            service._journal.compact()
        return served
    finally:
        for sig, previous in installed:
            signal.signal(sig, previous)
        server.close()
        # Unlinked last (§16): while draining, the path still names a
        # closed listener, so clients get an immediate refusal rather
        # than a vanished file followed by a recycled address.
        if os.path.exists(socket_path):
            os.unlink(socket_path)


def _handle_conn(
    service: SolverService,
    conn: socket.socket,
    max_frame_bytes: int | None = None,
) -> None:
    def note_disconnect() -> None:
        with service._metrics_lock:
            service.metrics.client_disconnects += 1

    with conn:
        try:
            payload = _recv_msg(conn, max_bytes=max_frame_bytes)
        except FrameTooLargeError as exc:
            with service._metrics_lock:
                service.metrics.frames_rejected += 1
            try:
                _send_msg(
                    conn, {"status": "error", "error": exc, "retryable": False}
                )
            except OSError:
                note_disconnect()
            return
        except (ConnectionError, OSError):
            # Torn frame / client vanished mid-send: this connection's
            # problem only, the accept loop never hears about it.
            note_disconnect()
            return
        try:
            if payload.get("op") == "stats":
                _send_msg(conn, {
                    "status": "ok",
                    **service.metrics.summary(),
                    "tenants": service.sc.memory_manager.tenant_usage(),
                })
                return
            request = _build_request(
                payload, max_frame_bytes, on_build=service._note_input_built
            )
            response = service.solve(
                request,
                timeout=payload.get("timeout"),
                wire=_journal_payload(payload),
            )
            reply: dict[str, Any] = {
                "status": "ok",
                "fingerprint": response.fingerprint,
                "from_cache": response.from_cache,
                "coalesced": response.coalesced,
                "wall_seconds": response.wall_seconds,
                "result_checksum": response.checksum,
            }
            if payload.get("return_result"):
                reply["result"] = response.result
            _send_msg(conn, reply)
        except (BrokenPipeError, ConnectionResetError):
            # The work settled (and, if journaled, durably so — the
            # client's keyed retry will be served the same result); only
            # the reply was lost.
            note_disconnect()
        except BaseException as exc:  # noqa: BLE001 — shipped to the client
            try:
                _send_msg(
                    conn,
                    {
                        "status": "error",
                        "error": exc,
                        "retryable": is_retryable(exc),
                    },
                )
            except OSError:
                note_disconnect()


#: seconds :func:`send_request` waits before its first reconnect, and
#: the ceiling the doubling stops at (each wait jittered to 0.5–1.5×)
RECONNECT_BACKOFF_BASE = 0.05
RECONNECT_BACKOFF_CAP = 2.0


def send_request(
    socket_path: str,
    payload: dict[str, Any],
    *,
    timeout: float = 120.0,
    retries: int = 0,
) -> dict[str, Any]:
    """Send one request dict to a running service; returns the reply.

    With ``retries > 0`` the client survives a dying, restarting, or
    overloaded server.  Transport failures (connection refused, socket
    file briefly missing, reset mid-reply, timeout) are retried with
    jittered exponential backoff (:data:`RECONNECT_BACKOFF_BASE`
    doubling up to :data:`RECONNECT_BACKOFF_CAP`).  Typed *retryable*
    error replies that carry a ``retry_after`` hint — overload sheds, drain refusals,
    tenant quota/rate refusals — are retried after sleeping exactly
    that hint: the server knows when its queue (or the tenant's bucket)
    will have drained, so its schedule beats any client-side guess.
    Other typed error replies (deadline overruns, engine faults) are
    returned, not retried — the transport worked, and the retry policy
    for those belongs to the caller; so is the last refusal once
    attempts run out.

    Solve payloads are stamped with a generated ``idempotency_key``
    (when the caller supplied none) that is *reused across attempts* —
    a journal-backed server replays the settled result instead of
    re-running work whose reply was lost, so retrying is safe even
    after the request was accepted.  The transport-backoff jitter uses
    the seeded chaos hash keyed on the idempotency key and attempt —
    deterministic, like every other "random" in this engine.
    """
    payload = dict(payload)
    key = payload.get("idempotency_key")
    if retries > 0 and payload.get("op") != "stats" and key is None:
        key = f"auto:{os.urandom(8).hex()}"
        payload["idempotency_key"] = key
    last_exc: Exception | None = None
    reply: dict[str, Any] | None = None
    for attempt in range(retries + 1):
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        client.settimeout(timeout)
        try:
            client.connect(socket_path)
            _send_msg(client, payload)
            reply = _recv_msg(client)
        except (OSError, ConnectionError) as exc:
            last_exc = exc
            if attempt < retries:
                jitter = deterministic_fraction(
                    0, "reconnect", (key or "", attempt + 1)
                )
                delay = min(
                    RECONNECT_BACKOFF_BASE * 2**attempt, RECONNECT_BACKOFF_CAP
                )
                time.sleep(delay * (0.5 + jitter))
            continue
        finally:
            client.close()
        error = reply.get("error") if isinstance(reply, dict) else None
        retry_after = getattr(error, "retry_after", None)
        if (
            attempt < retries
            and retry_after is not None
            and isinstance(
                error,
                (
                    ServiceOverloadedError,
                    ServiceDrainingError,
                    TenantQuotaExceededError,
                ),
            )
        ):
            time.sleep(retry_after)
            continue
        return reply
    if reply is not None:
        return reply
    assert last_exc is not None
    raise last_exc
