"""Tenant isolation primitives: policy, rate limiting, fair share, brownout.

The request plane (DESIGN.md §15–16) survives crashes and overload, but
survival is not isolation: one hog tenant could monopolize the dispatch
queue, the result cache, and the memory governor's budget.  This module
holds the four small, individually testable pieces the service composes
into its isolation plane (DESIGN.md §18):

- :class:`TenantPolicy` — the per-tenant knob set (weight, byte quota,
  admission rate).
- :class:`TokenBucket` — deterministic-under-fake-clock admission rate
  limiter.
- :class:`DeficitRoundRobin` — the weighted fair queue that replaces the
  dispatcher's single FIFO; a hog can saturate only its own weight.
- :class:`BrownoutLadder` — the graceful-degradation state machine
  driven by governor pressure and queue depth.

None of these know about the service, sockets, or the journal: they are
pure data structures so the fairness/degradation logic can be pinned by
unit tests without spinning up an engine context.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable

__all__ = [
    "TenantPolicy",
    "TokenBucket",
    "DeficitRoundRobin",
    "BrownoutLadder",
    "BROWNOUT_LEVELS",
]


@dataclass(frozen=True)
class TenantPolicy:
    """Isolation knobs for one tenant.

    ``weight`` feeds the deficit-round-robin dispatcher (relative share
    of engine passes under contention) and the brownout shed order
    (lowest weight goes first).  ``quota_bytes`` caps the tenant's
    in-flight solve charges plus cached-result bytes on the memory
    governor's tenant ledger; ``None`` means unmetered.  ``rate`` is a
    token-bucket admission rate in requests/second (``None`` = no rate
    limit) with ``burst`` tokens of headroom.
    """

    weight: int = 1
    quota_bytes: int | None = None
    rate: float | None = None
    burst: int = 4

    def __post_init__(self) -> None:
        if not isinstance(self.weight, int) or self.weight < 1:
            raise ValueError(f"weight must be an int >= 1, got {self.weight!r}")
        if self.quota_bytes is not None and self.quota_bytes < 0:
            raise ValueError(f"quota_bytes must be >= 0, got {self.quota_bytes!r}")
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"rate must be > 0 req/s, got {self.rate!r}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst!r}")


class TokenBucket:
    """Classic token bucket with an injectable clock.

    Refills lazily on read (no timer thread), so with a fake clock the
    grant/deny sequence is a pure function of the call times — tests pin
    the schedule exactly.  Not thread-safe on its own; the service calls
    it under its admission lock.
    """

    def __init__(
        self,
        rate: float,
        burst: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate!r}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst!r}")
        self.rate = float(rate)
        self.burst = int(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._stamp)
        self._stamp = now
        self._tokens = min(float(self.burst), self._tokens + elapsed * self.rate)

    def try_take(self) -> bool:
        """Take one token if available; never blocks."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def retry_after(self) -> float:
        """Seconds until one token will be available (0 if one is now)."""
        self._refill()
        if self._tokens >= 1.0:
            return 0.0
        return (1.0 - self._tokens) / self.rate


class DeficitRoundRobin:
    """Weighted deficit-round-robin over per-tenant FIFO queues.

    Every item costs one unit (one engine pass) and a tenant's quantum
    is its weight, so under saturation tenants are served in proportion
    to their weights — weight {a: 2, b: 1} yields the service order
    ``a a b a a b …``.  Within a tenant, strict FIFO (the single-queue
    ordering guarantee the WAL/resume protocol relies on is preserved
    per tenant).  Tenants with empty queues are retired from the
    rotation and their deficit dropped, so an idle tenant earns no
    credit it could later use to burst past its share.

    Not thread-safe; the service mutates it under its dispatch lock.
    """

    def __init__(self, weight_of: Callable[[str | None], int]) -> None:
        self._weight_of = weight_of
        self._queues: dict[str | None, deque[Any]] = {}
        self._rotation: deque[str | None] = deque()
        self._deficit: dict[str | None, float] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, tenant: str | None, item: Any) -> None:
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = deque()
        if not queue:
            # (re)activation: join the back of the rotation with a clean
            # deficit — no credit accrues while idle.
            if tenant not in self._deficit:
                self._rotation.append(tenant)
                self._deficit[tenant] = 0.0
        queue.append(item)
        self._size += 1

    def _retire(self, tenant: str | None) -> None:
        self._rotation.popleft()
        del self._deficit[tenant]
        del self._queues[tenant]

    def pop(self) -> Any:
        """Serve the next item under the weighted schedule.

        Raises :class:`IndexError` when empty, matching ``deque.popleft``.
        """
        if not self._size:
            raise IndexError("pop from an empty DeficitRoundRobin")
        while True:
            tenant = self._rotation[0]
            queue = self._queues[tenant]
            if self._deficit[tenant] >= 1.0:
                self._deficit[tenant] -= 1.0
                item = queue.popleft()
                self._size -= 1
                if not queue:
                    self._retire(tenant)
                return item
            # Recharge by the tenant's quantum and move to the back of
            # the rotation.  weight >= 1 guarantees one recharge is
            # enough to serve, so the loop always terminates.
            self._deficit[tenant] += max(1, int(self._weight_of(tenant)))
            self._rotation.rotate(-1)

    def drain(self) -> list[Any]:
        """Remove and return everything, rotation order then FIFO."""
        items: list[Any] = []
        for tenant in list(self._rotation):
            items.extend(self._queues[tenant])
        self._queues.clear()
        self._rotation.clear()
        self._deficit.clear()
        self._size = 0
        return items

    def tenants(self) -> Iterable[str | None]:
        """Tenants with queued work, rotation order."""
        return tuple(self._rotation)

    def depth(self, tenant: str | None) -> int:
        queue = self._queues.get(tenant)
        return len(queue) if queue else 0


#: brownout ladder rungs, in escalation order
BROWNOUT_LEVELS = ("normal", "degrade", "shed")


class BrownoutLadder:
    """Deterministic graceful-degradation state machine.

    Maps (governor pressure level, dispatcher queue depth) to one of
    three rungs — ``normal`` → ``degrade`` (IM requests served on the
    CB strategy, the PR 3 latch) → ``shed`` (lowest-weight tenants
    refused with ``retry_after``): severity score <= 1 is ``normal``,
    2 is ``degrade``, >= 3 is ``shed``.
    Escalation jumps straight to the computed target; de-escalation
    steps down one rung per evaluation, so a single quiet sample between
    two pressure spikes cannot flap the service all the way back to
    normal.  Given the same sequence of (pressure, depth) inputs the
    transition list is identical — that is what makes seeded-chaos
    brownout assertions possible.

    Not thread-safe; the service evaluates it under its lock.
    """

    _PRESSURE_SCORE = {"ok": 0, "pressured": 1, "critical": 2}

    def __init__(self, max_queue_depth: int) -> None:
        self.max_queue_depth = max(1, int(max_queue_depth))
        self.level = 0

    @property
    def name(self) -> str:
        return BROWNOUT_LEVELS[self.level]

    def target(self, pressure: str, queue_depth: int) -> int:
        """Pure severity score → target rung for one observation."""
        score = self._PRESSURE_SCORE.get(pressure, 0)
        if queue_depth > self.max_queue_depth // 2:
            score += 1
        if queue_depth >= self.max_queue_depth:
            score += 1
        return min(max(score - 1, 0), len(BROWNOUT_LEVELS) - 1)

    def evaluate(self, pressure: str, queue_depth: int) -> str | None:
        """Advance the ladder; return ``"old->new"`` on a transition."""
        target = self.target(pressure, queue_depth)
        if target > self.level:
            new = target
        elif target < self.level:
            new = self.level - 1  # de-escalate one rung at a time
        else:
            return None
        old_name = BROWNOUT_LEVELS[self.level]
        self.level = new
        return f"{old_name}->{BROWNOUT_LEVELS[new]}"
