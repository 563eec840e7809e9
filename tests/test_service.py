"""Request-plane tests for the solver service (DESIGN.md §15).

Covers the four defensive layers of :class:`repro.service.SolverService`
— admission control under memory pressure, single-flight dedup plus the
checksummed result cache, per-request deadlines that cancel mid-flight
without leaks, retries, and the poison fallback to threads — and closes with the
seeded request-storm chaos soak: ≥16 concurrent clients over a
process-backend context with worker kills and memory squeezes underneath,
asserting every admitted request completes bit-identical to a direct
solve or fails with a typed, retryable error, with zero leaked
``/dev/shm`` entries, worker processes, or cache reservations.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import pickle
import signal
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main as cli_main
from repro.core import floyd_warshall
from repro.core.dpspark import GepSparkSolver, make_kernel
from repro.core.gep import FloydWarshallGep
from repro.service import (
    ResultCache,
    ServiceConfig,
    SolverService,
    _recv_msg,
    _send_msg,
    is_retryable,
    send_request,
    serve_forever,
)
from repro.sparkle import (
    FaultPlan,
    FrameTooLargeError,
    JobAborted,
    RequestDeadlineExceeded,
    ServiceDrainingError,
    ServiceOverloadedError,
    SolveRequest,
    SparkleContext,
    SupervisionConfig,
    WorkerCrashed,
)
from repro.sparkle.memory import PRESSURE_CRITICAL, MemoryManager
from repro.sparkle.metrics import ServiceMetrics
from repro.workloads import random_digraph_weights

from .conftest import shm_entries
from .storms import run_request_storm

pytestmark = pytest.mark.service

SPEC = FloydWarshallGep()
KERNEL = make_kernel(SPEC, "iterative")


def _table(n: int = 24, seed: int = 0) -> np.ndarray:
    return random_digraph_weights(n, 0.4, seed=seed).astype(SPEC.dtype)


def _request(seed: int = 0, *, n: int = 24, r: int = 6, **kw) -> SolveRequest:
    return SolveRequest(
        spec=SPEC, table=_table(n, seed), r=r, kernel=KERNEL, **kw
    )


def _context(**kw) -> SparkleContext:
    kw.setdefault("num_executors", 2)
    kw.setdefault("cores_per_executor", 1)
    return SparkleContext(**kw)

_REFERENCES: dict = {}


def _reference(seed: int = 0, *, n: int = 24, r: int = 6) -> np.ndarray:
    """Direct (service-free) engine solve — THE bit-identity baseline.

    The blocked engine's update order drifts ~1e-15 from the dense
    ``floyd_warshall`` reference, so byte-level assertions must compare
    engine-vs-engine; semantic correctness vs the dense reference is
    checked separately with ``np.allclose``.
    """
    key = (seed, n, r)
    if key not in _REFERENCES:
        sc = _context()
        try:
            solver = GepSparkSolver(
                SPEC, sc, r=r, kernel=KERNEL, collect_stats=False
            )
            out, _ = solver.solve(_table(n, seed))
        finally:
            sc.stop()
        _REFERENCES[key] = out
    return _REFERENCES[key]



class SlowKernel:
    """Delegating kernel that sleeps before every tile update.

    Slows a solve down deterministically so a mid-flight deadline lands
    between scheduler attempt boundaries.  ``describe()`` includes the
    delay, so fingerprints never collide with the plain kernel's.
    Module-level (and state-light) so the process backend can pickle it.
    """

    def __init__(self, inner, delay: float) -> None:
        self.inner = inner
        self.delay = delay

    def describe(self) -> dict:
        return {**self.inner.describe(), "slow_delay": self.delay}

    def run(self, *args, **kwargs):
        time.sleep(self.delay)
        return self.inner.run(*args, **kwargs)

    def __getattr__(self, name):
        # guard against pickle probing attributes before __init__ ran;
        # and no ``run_stacks``: the inner kernel's would run its own
        # ``run``, not this sleeping one, on either backend
        if "inner" not in self.__dict__ or name == "run_stacks":
            raise AttributeError(name)
        return getattr(self.inner, name)


class SlowDKernel(SlowKernel):
    """Sleeps only in case D — the case whose calls batch many per task."""

    def run(self, case, *args, **kwargs):
        if case == "D":
            time.sleep(self.delay)
        return self.inner.run(case, *args, **kwargs)


# ---------------------------------------------------------------------------
# typed service errors: retryability (pickling: test_supervision.ERROR_SAMPLES)
# ---------------------------------------------------------------------------


class TestServiceErrors:
    @pytest.mark.parametrize(
        "exc",
        [
            ServiceOverloadedError(
                "shed", level="critical", queue_depth=7, retry_after=0.25
            ),
            RequestDeadlineExceeded("late", deadline=1.5, elapsed=2.25),
            ServiceDrainingError("draining for shutdown", retry_after=0.75),
            FrameTooLargeError("frame too big", length=1 << 40,
                               limit=1 << 20),
        ],
        ids=lambda e: type(e).__name__,
    )
    def test_pickle_round_trip_preserves_everything(self, exc):
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is type(exc)
        assert clone.args == exc.args
        assert vars(clone) == vars(exc)

    def test_retryability_contract(self):
        assert is_retryable(ServiceOverloadedError("shed"))
        assert is_retryable(WorkerCrashed("died", 1, "kill"))
        assert not is_retryable(RequestDeadlineExceeded("late"))
        assert not is_retryable(ValueError("config"))

    @pytest.mark.parametrize("deadline", [0, 0.0, -1.5])
    def test_default_deadline_must_be_positive(self, deadline, tmp_path, capsys):
        # every deadline-less request would otherwise fail at submit
        with pytest.raises(ValueError, match="default_deadline must be > 0"):
            ServiceConfig(default_deadline=deadline)
        assert ServiceConfig(default_deadline=None).default_deadline is None
        sock = str(tmp_path / "s.sock")
        argv = ["serve", "--socket", sock, "--default-deadline", str(deadline)]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert "serve: default_deadline must be > 0" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    @pytest.mark.timeout(120)
    def test_critical_pressure_sheds_with_typed_error(self):
        sc = _context(memory_budget_bytes=1 << 20)
        try:
            mm = sc.memory_manager
            assert mm.reserve("execution", "ballast", (1 << 20) - 1,
                              force=True)
            assert mm.pressure() == PRESSURE_CRITICAL
            with SolverService(sc) as service:
                with pytest.raises(ServiceOverloadedError) as excinfo:
                    service.submit(_request(seed=1))
                assert excinfo.value.level == PRESSURE_CRITICAL
                assert excinfo.value.retry_after is not None
                assert is_retryable(excinfo.value)
                assert service.metrics.requests_shed == 1
                # released pressure admits the same request again
                mm.release("execution", "ballast", (1 << 20) - 1)
                response = service.solve(_request(seed=1), timeout=60)
                assert np.array_equal(
                    response.result, _reference(1)
                )
        finally:
            sc.stop()

    @pytest.mark.timeout(120)
    def test_bounded_queue_sheds_overflow_then_recovers(self):
        sc = _context()
        gate = threading.Event()
        service = SolverService(sc, config=ServiceConfig(max_queue_depth=3))
        original = service._solve
        service._solve = lambda req: (
            gate.wait(60),
            original(req),
        )[1]
        try:
            tickets = [service.submit(_request(seed=s)) for s in range(3)]
            with pytest.raises(ServiceOverloadedError) as excinfo:
                service.submit(_request(seed=99))
            assert excinfo.value.queue_depth >= 3
            assert service.metrics.requests_shed == 1
            # shed requests leave no residue in the dedup table
            assert _request(seed=99).fingerprint() not in service._inflight
            gate.set()
            for seed, ticket in enumerate(tickets):
                response = ticket.result(60)
                assert np.array_equal(
                    response.result, _reference(seed)
                )
            # drained queue admits again
            assert service.solve(_request(seed=99), timeout=60)
        finally:
            gate.set()
            service.stop()
            sc.stop()


# ---------------------------------------------------------------------------
# single-flight dedup + result cache
# ---------------------------------------------------------------------------


class TestSingleFlight:
    @pytest.mark.timeout(120)
    def test_duplicates_coalesce_onto_one_engine_pass(self):
        sc = _context()
        service = SolverService(sc)
        gate = threading.Event()
        original = service._solve
        service._solve = lambda req: (
            gate.wait(60),
            original(req),
        )[1]
        try:
            tickets = [service.submit(_request(seed=5)) for _ in range(6)]
            gate.set()
            responses = [t.result(60) for t in tickets]
            reference = _reference(5)
            for response in responses:
                assert np.array_equal(response.result, reference)
            assert service.metrics.engine_passes == 1
            assert service.metrics.single_flight_coalesced == 5
            assert sum(1 for r in responses if r.coalesced) == 5
        finally:
            gate.set()
            service.stop()
            sc.stop()


class TestResultCache:
    @pytest.mark.timeout(300)
    @given(
        strategy=st.sampled_from(["im", "cb", "bcast"]),
        seed=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=6, deadline=None)
    def test_cached_response_is_byte_identical_to_fresh_solve(
        self, strategy, seed
    ):
        sc = _context(memory_budget_bytes=64 << 20)
        try:
            with SolverService(sc) as service:
                request = _request(seed=seed, strategy=strategy)
                fresh = service.solve(request, timeout=60)
                assert not fresh.from_cache
                repeat = service.solve(
                    _request(seed=seed, strategy=strategy), timeout=60
                )
                assert repeat.from_cache
                assert repeat.result.tobytes() == fresh.result.tobytes()
                assert repeat.result.dtype == fresh.result.dtype
                # and both match the direct (service-free) solver
                solver = GepSparkSolver(
                    SPEC, sc, r=6, kernel=KERNEL, strategy=strategy,
                    collect_stats=False,
                )
                direct, _ = solver.solve(_table(24, seed))
                sc.reclaim_solve_state()
                assert fresh.result.tobytes() == direct.tobytes()
                assert np.allclose(direct, floyd_warshall(_table(24, seed)))
                assert service.metrics.engine_passes == 1
        finally:
            sc.stop()

    @pytest.mark.timeout(120)
    def test_processes_backend_cache_identical_to_threads(self):
        reference = _reference(2)
        sc = _context(
            backend="processes",
            supervision=SupervisionConfig(heartbeat_interval=0.0),
        )
        try:
            with SolverService(sc) as service:
                fresh = service.solve(_request(seed=2), timeout=90)
                repeat = service.solve(_request(seed=2), timeout=90)
                assert repeat.from_cache
                assert fresh.result.tobytes() == repeat.result.tobytes()
                assert np.array_equal(fresh.result, reference)
        finally:
            sc.stop()

    @pytest.mark.timeout(120)
    def test_squeeze_invalidates_entries_instead_of_serving_stale(self):
        sc = _context(memory_budget_bytes=8 << 20)
        try:
            with SolverService(sc) as service:
                service.solve(_request(seed=0), timeout=60)
                assert len(service.cache) == 1
                # shrink the budget under the cache's feet: listener
                # must shed entries until pressure clears
                ballast = 5 << 20
                sc.memory_manager.reserve(
                    "execution", "ballast", ballast, force=True
                )
                sc.memory_manager.squeeze(0.5)
                assert len(service.cache) == 0
                assert service.metrics.cache_invalidations >= 1
                sc.memory_manager.release("execution", "ballast", ballast)
                # next request recomputes — correctly, not from a ghost
                response = service.solve(_request(seed=0), timeout=60)
                assert not response.from_cache
                assert service.metrics.engine_passes == 2
                assert np.array_equal(
                    response.result, _reference(0)
                )
        finally:
            sc.stop()

    @pytest.mark.timeout(120)
    def test_corrupted_entry_fails_checksum_and_is_never_served(self):
        sc = _context()
        try:
            with SolverService(sc) as service:
                fresh = service.solve(_request(seed=3), timeout=60)
                fingerprint = fresh.fingerprint
                entry = service.cache._entries[fingerprint]
                entry.array[0, 0] += 1.0  # simulate bit-rot in place
                response = service.solve(_request(seed=3), timeout=60)
                assert not response.from_cache
                assert service.metrics.cache_integrity_failures == 1
                assert np.array_equal(
                    response.result, _reference(3)
                )
        finally:
            sc.stop()

    @pytest.mark.timeout(120)
    def test_cache_bytes_charged_to_storage_pool_and_released_on_stop(self):
        sc = _context(memory_budget_bytes=64 << 20)
        try:
            service = SolverService(sc)
            service.solve(_request(seed=0), timeout=60)
            owners = sc.memory_manager.usage()["by_owner"]["storage"]
            assert owners.get(ResultCache.OWNER, 0) > 0
            service.stop()
            owners = sc.memory_manager.usage()["by_owner"]["storage"]
            assert owners.get(ResultCache.OWNER, 0) == 0
        finally:
            sc.stop()

    def test_lru_capacity_eviction(self):
        metrics = ServiceMetrics()
        cache = ResultCache(2, MemoryManager(None), metrics)
        a, b, c = (np.full((2, 2), float(i)) for i in range(3))
        cache.put("a", a)
        cache.put("b", b)
        assert cache.get("a") is not None  # refresh a; b is now LRU
        cache.put("c", c)
        assert metrics.cache_evictions == 1
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------


class TestDeadlines:
    @pytest.mark.timeout(120)
    def test_deadline_expires_while_queued(self):
        sc = _context()
        gate = threading.Event()
        service = SolverService(sc)
        original = service._solve
        service._solve = lambda req: (
            gate.wait(60),
            original(req),
        )[1]
        try:
            blocker = service.submit(_request(seed=0))
            doomed = service.submit(_request(seed=1, deadline=0.05))
            with pytest.raises(RequestDeadlineExceeded) as excinfo:
                doomed.result(60)
            assert not is_retryable(excinfo.value)
            assert doomed.outcome == "deadline-cancelled"
            assert service.metrics.deadline_cancelled == 1
            gate.set()
            assert blocker.result(60)  # unrelated request unaffected
            assert service.metrics.retries == 0  # deadlines never retry
        finally:
            gate.set()
            service.stop()
            sc.stop()

    @pytest.mark.timeout(120)
    def test_deadline_cancels_mid_solve_at_scheduler_boundary(self):
        sc = _context()
        try:
            with SolverService(sc) as service:
                slow = SolveRequest(
                    spec=SPEC,
                    table=_table(24, 7),
                    r=6,
                    kernel=SlowKernel(KERNEL, 0.01),
                    deadline=0.15,
                )
                started = time.monotonic()
                with pytest.raises(RequestDeadlineExceeded):
                    service.solve(slow, timeout=60)
                # enforcement is prompt — nowhere near a full slow solve
                # (~200 tile updates x 10ms), and the engine stays usable
                assert time.monotonic() - started < 30.0
                response = service.solve(_request(seed=7), timeout=60)
                assert np.array_equal(
                    response.result, _reference(7)
                )
        finally:
            sc.stop()

    @pytest.mark.timeout(240)
    def test_deadline_kills_offloaded_pass_without_shm_leak(self):
        shm_before = shm_entries()
        sc = _context(
            backend="processes",
            supervision=SupervisionConfig(heartbeat_interval=0.0),
        )
        try:
            with SolverService(sc) as service:
                stuck = SolveRequest(
                    spec=SPEC,
                    table=_table(24, 8),
                    r=2,
                    kernel=SlowKernel(KERNEL, 60.0),
                    deadline=1.0,
                )
                with pytest.raises(RequestDeadlineExceeded):
                    service.solve(stuck, timeout=120)
                # engine still healthy after the SIGKILL/respawn cycle
                # (this solve also serializes behind the stuck flight's
                # cleanup, so the restore below is safe to assert)
                response = service.solve(_request(seed=8, r=2), timeout=120)
                assert np.array_equal(
                    response.result, _reference(8, r=2)
                )
                # the stuck pass's temporary task deadline was restored
                assert sc.supervision.task_deadline is None
        finally:
            sc.stop()
        assert shm_entries() - shm_before == set()

    @pytest.mark.timeout(240)
    def test_deadline_is_a_ceiling_not_a_per_call_budget(self):
        """A stuck batch of N kernel calls is killed at the request
        deadline, not N deadlines later (at r=8 on 4 partitions a D task
        carries ~12 calls).  The waiter's own ticket times out at the
        deadline either way, so the stuck *pass* is what is timed: a
        follow-up request queues behind its kill/respawn/cleanup."""
        shm_before = shm_entries()
        sc = _context(
            backend="processes",
            supervision=SupervisionConfig(heartbeat_interval=0.0),
        )
        try:
            with SolverService(sc) as service:
                stuck = SolveRequest(
                    spec=SPEC,
                    table=_table(24, 8),
                    r=8,
                    kernel=SlowDKernel(KERNEL, 60.0),
                    deadline=1.0,
                )
                started = time.monotonic()
                with pytest.raises(RequestDeadlineExceeded):
                    service.solve(stuck, timeout=120)
                response = service.solve(_request(seed=8), timeout=120)
                # ~2.4 s measured: 1 s of budget + SIGKILL/respawn + the
                # follow-up solve; ~14 s when the deadline is per call
                assert time.monotonic() - started < 6.0
                assert np.array_equal(response.result, _reference(8))
                assert sc.supervision.task_deadline is None
                assert sc.offload.job_deadline is None
        finally:
            sc.stop()
        assert shm_entries() - shm_before == set()

    @pytest.mark.timeout(120)
    def test_coalesced_waiters_time_out_individually(self):
        sc = _context()
        gate = threading.Event()
        service = SolverService(sc)
        original = service._solve
        service._solve = lambda req: (
            gate.wait(60),
            original(req),
        )[1]
        try:
            table = _table(24, 9)
            patient = service.submit(
                SolveRequest(spec=SPEC, table=table, r=6, kernel=KERNEL)
            )
            hasty = service.submit(
                SolveRequest(
                    spec=SPEC, table=table, r=6, kernel=KERNEL, deadline=0.05
                )
            )
            assert hasty.coalesced
            with pytest.raises(RequestDeadlineExceeded):
                hasty.result(60)
            gate.set()
            response = patient.result(60)  # the flight itself survives
            assert np.array_equal(response.result, _reference(9))
            assert service.metrics.engine_passes == 1
        finally:
            gate.set()
            service.stop()
            sc.stop()


# ---------------------------------------------------------------------------
# retry
# ---------------------------------------------------------------------------


class TestRetry:
    @pytest.mark.timeout(120)
    def test_retryable_fault_is_retried_at_once_then_served(self):
        sc = _context()
        service = SolverService(
            sc, config=ServiceConfig(retries=3, cache_entries=0)
        )
        original = service._solve
        crashes = []

        def flaky(request):
            if len(crashes) < 2:
                crashes.append(1)
                raise WorkerCrashed("chaos", pid=1234, reason="test")
            return original(request)

        service._solve = flaky
        try:
            response = service.solve(_request(seed=4), timeout=60)
            assert response.result.tobytes() == _reference(4).tobytes()
            assert service.metrics.retries == 2
            assert service.metrics.engine_passes == 3
        finally:
            service.stop()
            sc.stop()


# ---------------------------------------------------------------------------
# a poison kernel call: the solver falls back to threads on its own
# ---------------------------------------------------------------------------


class PoisonPivotKernel:
    """The iterative kernel, except that a worker process running the
    first pivot tile (case A at ``k = 0``) SIGKILLs itself.  A batch of
    one call, so the death is charged to that call alone."""

    def __init__(self, inner, driver_pid: int) -> None:
        self.inner = inner
        self.driver_pid = driver_pid

    def describe(self) -> dict:
        return {**self.inner.describe(), "poison": "A@0"}

    def run(self, case, x, u, v, w, gi0, gj0, gk0, n, stats=None):
        if case == "A" and gk0 == 0 and os.getpid() != self.driver_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.run(case, x, u, v, w, gi0, gj0, gk0, n, stats=stats)


class TestPoisonFallback:
    @pytest.mark.supervision
    @pytest.mark.timeout(180)
    def test_poison_call_served_in_one_pass_and_kills_no_more_workers(self):
        shm_before = shm_entries()
        sc = _context(
            backend="processes",
            supervision=SupervisionConfig(heartbeat_interval=0.0, max_task_failures=1),
        )
        service = SolverService(sc, config=ServiceConfig(cache_entries=0))
        kernel = PoisonPivotKernel(KERNEL, os.getpid())
        try:
            first = service.solve(
                SolveRequest(spec=SPEC, table=_table(24, 4), r=6, kernel=kernel),
                timeout=120,
            )
            assert first.result.tobytes() == _reference(4).tobytes()
            assert service.metrics.engine_passes == 1
            assert service.metrics.retries == 0
            assert sc.metrics.poison_tasks == 1
            assert sc.metrics.backend_degradations == 1
            crashes = sc.metrics.worker_crashes
            assert crashes == 1
            # the quarantine refuses the call before any worker runs it
            second = service.solve(
                SolveRequest(spec=SPEC, table=_table(24, 5), r=6, kernel=kernel),
                timeout=120,
            )
            assert second.result.tobytes() == _reference(5).tobytes()
            assert sc.metrics.worker_crashes == crashes
            assert service.metrics.engine_passes == 2
            assert service.metrics.retries == 0
            assert sc.metrics.backend_degradations == 2
        finally:
            service.stop()
            sc.stop()
        assert shm_entries() - shm_before == set()


# ---------------------------------------------------------------------------
# the seeded request storm (acceptance soak)
# ---------------------------------------------------------------------------


def _assert_storm_outcomes(outcomes, references):
    """Every request: bit-identical success or a typed, honest failure."""
    assert outcomes, "storm produced no outcomes"
    completed = 0
    for record in outcomes:
        if record["ok"]:
            completed += 1
            expected = references[record["fingerprint"]]
            assert record["response"].result.tobytes() == expected.tobytes()
        else:
            error = record["error"]
            assert isinstance(
                error,
                (
                    ServiceOverloadedError,
                    ServiceDrainingError,
                    RequestDeadlineExceeded,
                    WorkerCrashed,
                    JobAborted,
                ),
            ), f"untyped storm failure: {error!r}"
            assert is_retryable(error) or isinstance(
                error, RequestDeadlineExceeded
            )
    return completed


class TestRequestStorm:
    @pytest.mark.chaos
    @pytest.mark.timeout(300)
    def test_sixteen_client_storm_threads(self):
        plan = FaultPlan.from_string("seed=11,request_storm=0.4")
        sc = _context(memory_budget_bytes=64 << 20)
        service = SolverService(sc, config=ServiceConfig(max_queue_depth=32))
        tables = {seed: _table(24, seed) for seed in (0, 1)}
        references = {}
        for seed, table in tables.items():
            request = SolveRequest(spec=SPEC, table=table, r=6, kernel=KERNEL)
            references[request.fingerprint()] = _reference(seed)

        def make_request(client, seq):
            return SolveRequest(
                spec=SPEC,
                table=tables[seq % 2],
                r=6,
                kernel=KERNEL,
                client=f"client-{client}",
            )

        try:
            outcomes = run_request_storm(
                service,
                make_request,
                clients=16,
                requests_per_client=2,
                plan=plan,
                tight_deadline=0.002,
                timeout=120.0,
            )
            completed = _assert_storm_outcomes(outcomes, references)
            m = service.metrics
            assert completed >= 1
            assert m.single_flight_coalesced >= 1
            # dedup + cache bound the real work: 2 distinct solves exist
            assert m.engine_passes <= 2 * (1 + service.config.retries)
            assert plan.fired().get("request_storm", 0) >= 1
        finally:
            service.stop()
            sc.stop()
        assert len(service.cache) == 0

    @pytest.mark.chaos
    @pytest.mark.supervision
    @pytest.mark.timeout(600)
    def test_storm_survives_worker_kills_and_squeezes_without_leaks(self):
        plan = FaultPlan.from_string(
            "seed=23,request_storm=0.3,worker_kill=0.03,mem_squeeze=0.05"
        )
        shm_before = shm_entries()
        sc = _context(
            backend="processes",
            fault_plan=plan,
            memory_budget_bytes=96 << 20,
            supervision=SupervisionConfig(heartbeat_interval=0.0),
        )
        service = SolverService(
            sc,
            config=ServiceConfig(max_queue_depth=32, retries=3),
        )
        tables = {seed: _table(24, seed) for seed in (0, 1)}
        references = {}
        for seed, table in tables.items():
            request = SolveRequest(spec=SPEC, table=table, r=2, kernel=KERNEL)
            references[request.fingerprint()] = _reference(seed, r=2)

        def make_request(client, seq):
            return SolveRequest(
                spec=SPEC,
                table=tables[seq % 2],
                r=2,
                kernel=KERNEL,
                client=f"client-{client}",
            )

        try:
            outcomes = run_request_storm(
                service,
                make_request,
                clients=16,
                requests_per_client=2,
                plan=plan,
                tight_deadline=0.002,
                timeout=300.0,
            )
            completed = _assert_storm_outcomes(outcomes, references)
            assert completed >= 1
            assert service.metrics.single_flight_coalesced >= 1
        finally:
            service.stop()
            sc.stop()
        # nothing leaked: /dev/shm entries, worker processes, cache bytes
        assert shm_entries() - shm_before == set()
        assert multiprocessing.active_children() == []
        assert len(service.cache) == 0


# ---------------------------------------------------------------------------
# socket plane + lifecycle
# ---------------------------------------------------------------------------


class TestSocketPlane:
    @pytest.mark.timeout(120)
    def test_serve_and_request_round_trip(self, tmp_path):
        socket_path = str(tmp_path / "solver.sock")
        sc = _context()
        service = SolverService(sc)
        ready = threading.Event()
        server = threading.Thread(
            target=serve_forever,
            args=(service, socket_path),
            kwargs={"max_requests": 3, "ready": ready},
            daemon=True,
        )
        server.start()
        assert ready.wait(30)
        try:
            payload = {
                "problem": "apsp", "n": 24, "seed": 5, "r": 4,
                "return_result": True,
            }
            first = send_request(socket_path, payload, timeout=60)
            assert first["status"] == "ok"
            assert not first["from_cache"]
            second = send_request(socket_path, payload, timeout=60)
            assert second["status"] == "ok"
            assert second["from_cache"]
            assert first["result"].tobytes() == second["result"].tobytes()
            stats = send_request(socket_path, {"op": "stats"}, timeout=60)
            assert stats["cache_hits"] == 1
            server.join(timeout=30)
        finally:
            service.stop()
            sc.stop()

    @pytest.mark.timeout(120)
    def test_socket_error_reply_is_typed(self, tmp_path):
        socket_path = str(tmp_path / "solver.sock")
        sc = _context()
        service = SolverService(sc)
        ready = threading.Event()
        server = threading.Thread(
            target=serve_forever,
            args=(service, socket_path),
            kwargs={"max_requests": 1, "ready": ready},
            daemon=True,
        )
        server.start()
        assert ready.wait(30)
        try:
            reply = send_request(
                socket_path, {"problem": "nonsense", "n": 8}, timeout=60
            )
            assert reply["status"] == "error"
            assert isinstance(reply["error"], ValueError)
            server.join(timeout=30)
        finally:
            service.stop()
            sc.stop()


class TestLifecycle:
    @pytest.mark.timeout(120)
    def test_stop_without_drain_fails_queued_requests_typed(self):
        sc = _context()
        gate = threading.Event()
        service = SolverService(sc)
        original = service._solve
        entered = threading.Event()
        service._solve = lambda req: (
            entered.set(),
            gate.wait(60),
            original(req),
        )[2]
        running = service.submit(_request(seed=0))
        # stop(drain=False) fails whatever is still queued: the first
        # request must be in flight, not merely submitted, before it runs
        assert entered.wait(30)
        queued = service.submit(_request(seed=1))
        stopper = threading.Thread(
            target=service.stop, kwargs={"drain": False}, daemon=True
        )
        stopper.start()
        try:
            with pytest.raises(ServiceOverloadedError):
                queued.result(60)
            gate.set()
            assert running.result(60)  # in-flight work still lands
            stopper.join(timeout=30)
            with pytest.raises(RuntimeError):
                service.submit(_request(seed=2))
        finally:
            gate.set()
            stopper.join(timeout=30)
            sc.stop()


# ---------------------------------------------------------------------------
# socket hardening (PR 8 satellites): hostile frames, vanishing clients,
# stale socket files
# ---------------------------------------------------------------------------


def _start_server(service, socket_path, **kwargs):
    """serve_forever on a daemon thread; returns it once the socket binds."""
    ready = threading.Event()
    kwargs.setdefault("ready", ready)
    server = threading.Thread(
        target=serve_forever,
        args=(service, socket_path),
        kwargs=kwargs,
        daemon=True,
    )
    server.start()
    assert ready.wait(30), "server failed to bind"
    return server


class TestSocketHardening:
    @pytest.mark.timeout(120)
    def test_oversized_frame_gets_typed_refusal_and_loop_survives(
        self, tmp_path
    ):
        socket_path = str(tmp_path / "solver.sock")
        sc = _context()
        service = SolverService(sc, config=ServiceConfig(max_frame_bytes=1 << 16))
        server = _start_server(service, socket_path, max_requests=2)
        try:
            hostile = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            hostile.settimeout(30)
            try:
                hostile.connect(socket_path)
                # A header announcing a petabyte: the server must refuse
                # before reading (or allocating) a single payload byte.
                hostile.sendall(struct.pack(">Q", 1 << 50))
                reply = _recv_msg(hostile)
            finally:
                hostile.close()
            assert reply["status"] == "error"
            assert isinstance(reply["error"], FrameTooLargeError)
            assert reply["error"].length == 1 << 50
            assert reply["error"].limit == 1 << 16
            assert reply["retryable"] is False
            # the accept loop is still alive and serving
            stats = send_request(socket_path, {"op": "stats"}, timeout=60)
            assert stats["status"] == "ok"
            assert stats["frames_rejected"] == 1
            server.join(timeout=30)
            assert not server.is_alive()
        finally:
            service.stop()
            sc.stop()

    @pytest.mark.timeout(120)
    def test_unframeable_n_is_refused_before_any_table_is_generated(
        self, tmp_path, monkeypatch
    ):
        import repro.workloads

        generated = []
        make_problem = repro.workloads.make_problem

        def recording(problem, n, seed, density):
            generated.append(n)
            return make_problem(problem, n, seed, density)

        monkeypatch.setattr(repro.workloads, "make_problem", recording)
        socket_path = str(tmp_path / "solver.sock")
        sc = _context()
        service = SolverService(sc, config=ServiceConfig(max_frame_bytes=1 << 16))
        server = _start_server(service, socket_path, max_requests=2)
        try:
            # 128 x 128 float64 = 128 KiB: twice what a reply frame may carry
            reply = send_request(
                socket_path, {"problem": "apsp", "n": 128, "r": 4}, timeout=60
            )
            assert reply["status"] == "error"
            assert isinstance(reply["error"], ValueError)
            assert reply["retryable"] is False
            assert generated == []
            # the accept loop is still alive and serving
            reply = send_request(
                socket_path, {"problem": "apsp", "n": 16, "r": 4}, timeout=60
            )
            assert reply["status"] == "ok" and generated == [16]
            server.join(timeout=30)
            assert not server.is_alive()
        finally:
            service.stop()
            sc.stop()

    @pytest.mark.timeout(120)
    def test_torn_frame_is_that_connections_problem_only(self, tmp_path):
        socket_path = str(tmp_path / "solver.sock")
        sc = _context()
        service = SolverService(sc)
        server = _start_server(service, socket_path, max_requests=2)
        try:
            torn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            torn.connect(socket_path)
            torn.sendall(b"\x00\x00\x00")  # 3 of 8 header bytes, then gone
            torn.close()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                with service._metrics_lock:
                    if service.metrics.client_disconnects:
                        break
                time.sleep(0.01)
            stats = send_request(socket_path, {"op": "stats"}, timeout=60)
            assert stats["status"] == "ok"
            assert stats["client_disconnects"] == 1
            server.join(timeout=30)
            assert not server.is_alive()
        finally:
            service.stop()
            sc.stop()

    @pytest.mark.timeout(120)
    def test_client_vanishing_before_reply_still_settles_the_work(
        self, tmp_path
    ):
        socket_path = str(tmp_path / "solver.sock")
        sc = _context()
        service = SolverService(sc)
        server = _start_server(service, socket_path, max_requests=2)
        payload = {"problem": "apsp", "n": 24, "seed": 9, "r": 4}
        try:
            ghost = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            ghost.connect(socket_path)
            _send_msg(ghost, payload)
            ghost.close()  # gone before the reply: EPIPE on the server
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                with service._metrics_lock:
                    if service.metrics.client_disconnects:
                        break
                time.sleep(0.01)
            with service._metrics_lock:
                assert service.metrics.client_disconnects == 1
            # the solve itself settled and is served from cache
            reply = send_request(
                socket_path, {**payload, "return_result": True}, timeout=60
            )
            assert reply["status"] == "ok"
            assert reply["from_cache"]
            server.join(timeout=30)
            assert not server.is_alive()
        finally:
            service.stop()
            sc.stop()

    @pytest.mark.timeout(120)
    def test_stale_socket_file_is_reclaimed_on_next_bind(self, tmp_path):
        socket_path = str(tmp_path / "solver.sock")
        # simulate a SIGKILLed server: bound socket file, no listener
        corpse = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        corpse.bind(socket_path)
        corpse.close()
        assert glob.glob(socket_path)  # the file survived the "crash"
        sc = _context()
        service = SolverService(sc)
        server = _start_server(service, socket_path, max_requests=1)
        try:
            stats = send_request(socket_path, {"op": "stats"}, timeout=60)
            assert stats["status"] == "ok"
            assert stats["stale_sockets_reclaimed"] == 1
            server.join(timeout=30)
        finally:
            service.stop()
            sc.stop()
        assert glob.glob(socket_path) == []  # unlinked on shutdown

    @pytest.mark.timeout(120)
    def test_live_socket_is_never_stolen(self, tmp_path):
        socket_path = str(tmp_path / "solver.sock")
        sc = _context()
        service = SolverService(sc)
        server = _start_server(service, socket_path, max_requests=1)
        try:
            # a second server must refuse to bind over a live listener
            with pytest.raises(OSError, match="live service"):
                serve_forever(service, socket_path, max_requests=1)
            server.join(timeout=30)
            assert not server.is_alive()
        finally:
            service.stop()
            sc.stop()


# ---------------------------------------------------------------------------
# per-tenant accounting (PR 8 satellite)
# ---------------------------------------------------------------------------


class TestTenantAccounting:
    @pytest.mark.timeout(120)
    def test_requests_and_cache_hits_split_by_tenant(self):
        sc = _context()
        service = SolverService(sc)
        try:
            assert service.solve(_request(0, tenant="acme"), timeout=60)
            hit = service.solve(_request(0, tenant="acme"), timeout=60)
            assert hit.from_cache
            assert service.solve(_request(1, tenant="globex"), timeout=60)
            assert service.solve(_request(2), timeout=60)  # untenanted
            assert service.metrics.per_tenant == {
                "acme": {"requests": 2, "sheds": 0, "cache_hits": 1,
                         "completed": 2, "engine_passes": 1,
                         "quota_rejections": 0, "rate_limited": 0},
                "globex": {"requests": 1, "sheds": 0, "cache_hits": 0,
                           "completed": 1, "engine_passes": 1,
                           "quota_rejections": 0, "rate_limited": 0},
            }
            summary = service.metrics.summary()
            assert summary["per_tenant"]["acme"]["cache_hits"] == 1
        finally:
            service.stop()
            sc.stop()

    @pytest.mark.timeout(120)
    def test_sheds_are_charged_to_the_shed_tenant(self):
        sc = _context()
        service = SolverService(sc)
        try:
            service.drain()
            with pytest.raises(ServiceDrainingError):
                service.submit(_request(0, tenant="acme"))
            assert service.metrics.per_tenant["acme"] == {
                "requests": 1, "sheds": 1, "cache_hits": 0,
                "completed": 0, "engine_passes": 0,
                "quota_rejections": 0, "rate_limited": 0,
            }
        finally:
            service.stop()
            sc.stop()


# ---------------------------------------------------------------------------
# graceful drain (PR 8 tentpole): typed shedding, in-flight work lands
# ---------------------------------------------------------------------------


class TestDrain:
    @pytest.mark.timeout(120)
    def test_drain_sheds_typed_while_inflight_work_lands(self):
        sc = _context()
        gate = threading.Event()
        service = SolverService(sc)
        original = service._solve
        service._solve = lambda req: (
            gate.wait(60),
            original(req),
        )[1]
        try:
            running = service.submit(_request(seed=0))
            assert not service.draining
            service.drain()
            service.drain()  # idempotent
            assert service.draining
            with pytest.raises(ServiceDrainingError) as excinfo:
                service.submit(_request(seed=1))
            assert excinfo.value.retry_after == service.drain_retry_after
            assert is_retryable(excinfo.value)
            assert service.metrics.draining_sheds == 1
            gate.set()
            assert running.result(60)  # drain never cancels in-flight work
        finally:
            gate.set()
            service.stop()
            sc.stop()

    @pytest.mark.chaos
    @pytest.mark.timeout(300)
    def test_storm_with_seeded_driver_kill_twist_drains_midflight(self):
        # seed=13 fires driver_kill first at (client=1, seq=1): the hook
        # drains the service mid-storm, so that client's own request —
        # and every later submission — sheds with the typed draining
        # error while already-admitted flights run to settlement.
        plan = FaultPlan.from_string("seed=13,driver_kill=0.25")
        sc = _context()
        service = SolverService(sc, config=ServiceConfig(max_queue_depth=32))
        tables = {seed: _table(24, seed) for seed in (0, 1)}
        references = {}
        for seed, table in tables.items():
            request = SolveRequest(spec=SPEC, table=table, r=6, kernel=KERNEL)
            references[request.fingerprint()] = _reference(seed)

        def make_request(client, seq):
            return SolveRequest(
                spec=SPEC,
                table=tables[seq % 2],
                r=6,
                kernel=KERNEL,
                client=f"client-{client}",
            )

        try:
            outcomes = run_request_storm(
                service,
                make_request,
                clients=8,
                requests_per_client=3,
                plan=plan,
                timeout=120.0,
                on_driver_kill=lambda client, seq: service.drain(),
            )
            _assert_storm_outcomes(outcomes, references)
            drained = [
                r for r in outcomes
                if not r["ok"] and isinstance(r["error"], ServiceDrainingError)
            ]
            assert drained, "seeded driver_kill twist never shed a request"
            assert all(r["retryable"] for r in drained)
            assert plan.fired().get("driver_kill", 0) >= 1
            assert service.metrics.draining_sheds == len(drained)
        finally:
            service.stop()
            sc.stop()
