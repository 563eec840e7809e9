"""Typed request/response plane for the solver service (DESIGN.md §15).

This module is the wire-and-memory contract between clients and
:class:`~repro.service.SolverService`: a :class:`SolveRequest` names one
solve (problem spec + kernel + input table + strategy + tiling), a
:class:`SolveResponse` carries the result plus request-plane provenance
(cache hit?  coalesced onto another flight?), and the service errors
re-exported here are the complete set a client must handle.

It also owns :func:`solve_fingerprint` — the config/input identity that
keys the write-ahead journal (PR 2 resume), the single-flight dedup
table, and the result cache.  All three MUST agree byte-for-byte, which
is why the GEP solver's ``_fingerprint`` delegates here instead of
keeping a private copy: a drift between "same solve for resume" and
"same solve for caching" would let the cache serve a result the journal
would refuse to resume.  :meth:`SolveRequest.identity` is the one
shortcut: a request generated from parameters names its input by them,
and the service's result cache maps that name to a fingerprint it
computed from the real table once.

Import direction: ``repro.core`` imports ``repro.sparkle``, never the
reverse — so this module holds spec/kernel objects opaquely and never
touches ``repro.core``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Hashable, Mapping

import numpy as np

from .errors import RequestDeadlineExceeded, ServiceOverloadedError

__all__ = [
    "SolveRequest",
    "SolveResponse",
    "solve_fingerprint",
    "ServiceOverloadedError",
    "RequestDeadlineExceeded",
]


def solve_fingerprint(
    spec_name: str,
    dtype: Any,
    n: int,
    r: int,
    nt: int,
    strategy: str,
    kernel_describe: Mapping[str, Any],
    table: np.ndarray,
) -> str:
    """Config/input identity of one solve (BLAKE2b-128 hex digest).

    Covers everything that influences the numeric result: problem spec
    and dtype, grid shape, strategy, kernel configuration, and the exact
    input bytes (which also captures any generator seed).  Scheduling
    knobs (partitioner, executor counts, backend, chaos plans)
    deliberately stay out — they alter traces, never results, so a
    cached result is valid across all of them.

    The digest layout is frozen: journals written by earlier releases
    key resume eligibility on it (see ``GepSparkSolver._fingerprint``).
    """
    h = hashlib.blake2b(digest_size=16)
    config = (
        spec_name,
        str(np.dtype(dtype)),
        n,
        r,
        nt,
        strategy,
        sorted(kernel_describe.items()),
    )
    h.update(repr(config).encode())
    h.update(np.ascontiguousarray(table).tobytes())
    return h.hexdigest()


@dataclass
class SolveRequest:
    """One client request to the solver service.

    ``spec`` and ``kernel`` are held opaquely (any objects providing the
    ``GepSpec`` / kernel protocol — ``.name``/``.dtype`` and
    ``.describe()`` respectively); the service passes them straight to
    :class:`~repro.core.dpspark.GepSparkSolver`.
    """

    spec: Any
    table: np.ndarray
    r: int
    kernel: Any
    strategy: str = "im"
    #: wall-clock budget in seconds covering queueing + the engine pass
    #: (None = no deadline); overruns cancel mid-flight with
    #: :class:`RequestDeadlineExceeded`
    deadline: float | None = None
    #: client identity for accounting/tracing (free-form)
    client: str = "anonymous"
    request_id: str | None = None
    #: isolation principal (DESIGN.md §18): keys the service's weighted
    #: deficit-round-robin dispatch queue, byte quota on the memory
    #: governor's tenant ledger, token-bucket rate limit, and brownout
    #: shed order (via :class:`~repro.sparkle.tenancy.TenantPolicy`),
    #: plus per-tenant metering in :class:`~repro.sparkle.metrics.
    #: ServiceMetrics`.  Deliberately excluded from the fingerprint —
    #: two tenants asking for the same solve share one engine pass and
    #: one cache entry (only the *admitting* tenant's quota carries the
    #: flight).  ``None`` requests all share the anonymous queue at the
    #: default weight, unmetered and unquota'd.
    tenant: str | None = None
    #: client-supplied stable identity for *this submission* (not the
    #: solve): the request journal keys admission/settlement on it, so a
    #: client that reconnects after a driver crash and resends the same
    #: key is served the original settlement instead of a re-execution.
    #: Also excluded from the fingerprint — it names the attempt, not
    #: the work.
    idempotency_key: str | None = None

    def __post_init__(self) -> None:
        if self.strategy not in ("im", "cb", "bcast"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be > 0 seconds (or None)")
        self._check_table()

    def _check_table(self) -> None:
        """Refuse a table the engine cannot serve bit-identically.

        A NaN is refused outright: its sign bit is not fixed under the
        kernel's tile stacking, so a cached result could differ from a
        solo solve of the same input bit for bit.
        """
        table = self.table
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("GEP requires a square table")
        if table.dtype.kind in "fc" and np.isnan(table).any():
            raise ValueError("request table holds a NaN")

    def identity(self) -> Hashable | None:
        """The input's generator identity plus the solve config, or None.

        A request whose table was handed in has no name but its bytes
        (None); one built from generator parameters returns a hashable
        key that determines :meth:`fingerprint`, so the result cache can
        resolve it without building the table.
        """
        return None

    def fingerprint(self) -> str:
        """The dedup/cache/journal identity of this request's solve."""
        n = self.table.shape[0]
        # Mirrors core.blocked.grid_bounds (an r-way near-equal split):
        # nt tiles per side, capped by the extent.
        nt = min(self.r, n) if n else 1
        return solve_fingerprint(
            self.spec.name,
            self.spec.dtype,
            n,
            self.r,
            nt,
            self.strategy,
            self.kernel.describe(),
            self.table,
        )


@dataclass
class SolveResponse:
    """A completed request: the result plus request-plane provenance."""

    result: np.ndarray
    fingerprint: str
    #: BLAKE2b-128 of ``result``'s bytes: the cache entry's verified
    #: checksum on a hit, the one hash of a fresh engine result otherwise
    checksum: str
    request_id: str | None = None
    #: served from the LRU result cache (no engine pass for this request)
    from_cache: bool = False
    #: coalesced onto another request's in-flight engine pass
    coalesced: bool = False
    #: request-plane wall-clock (admission to response), seconds
    wall_seconds: float = 0.0
    #: terminal state machine label (DESIGN.md §15): ``completed`` here;
    #: failures travel as typed exceptions, not responses
    state: str = "completed"
    extras: dict[str, Any] = field(default_factory=dict)
