"""Seeded client storms against a :class:`~repro.service.SolverService`.

:func:`run_request_storm` drives ``request_storm`` / ``driver_kill``
fault plans through concurrent clients; :func:`run_noisy_neighbor_storm`
is the tenant-isolation soak (one hog tenant against victims).  The
service and tenancy suites run them.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import replace
from typing import Any, Callable

from repro.service import SolverService, SolveTicket, is_retryable
from repro.sparkle import (
    ServiceDrainingError,
    ServiceOverloadedError,
    SolveRequest,
    TenantQuotaExceededError,
)


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
    queued: threading.Event | None = None,
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

    ``queued``, if given, is set once every tenant thread has submitted
    its whole backlog (or given up on it).  A caller that holds engine
    passes until then measures the weighted share from pass 0, however
    late the OS schedules a victim thread; without the hold the hog can
    run passes before a victim's first submit.
    """
    tenants = (hog,) + tuple(victims)
    outcomes: dict[str, list[dict[str, Any]]] = {t: [] for t in tenants}
    burst_tickets: list[SolveTicket] = []
    burst_lock = threading.Lock()
    barrier = threading.Barrier(len(tenants))
    submitting = [len(tenants)]
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
        extra_seq = itertools.count(requests_per_tenant)
        pending: list[tuple[dict[str, Any], SolveRequest, SolveTicket | None]] = []
        try:
            barrier.wait(timeout=timeout)
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
        finally:
            with burst_lock:
                submitting[0] -= 1
                if submitting[0] == 0 and queued is not None:
                    queued.set()
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
