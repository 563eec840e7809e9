"""Tenant isolation plane tests (DESIGN.md §18).

Covers the four primitives in :mod:`repro.sparkle.tenancy` (policy
validation, token-bucket rate limiting under a fake clock, weighted
deficit-round-robin fairness, the brownout ladder's deterministic
transitions), their composition inside :class:`repro.service.
SolverService` (enforced byte quotas on the governor's tenant ledger,
per-tenant rate gates, brownout degrade/shed effects on live
engine passes), the ``noisy_neighbor`` seeded chaos storm fairness
acceptance, the ``send_request`` retry_after sleep schedule, and the
hypothesis property that multi-tenant WAL replay after a crash settles each
tenant's work exactly once, bit-identical, metered to the right tenant.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import socket
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dpspark import GepSparkSolver, make_kernel
from repro.core.gep import FloydWarshallGep
from repro.service import (
    RequestJournal,
    ServiceConfig,
    SolverService,
    TenantPolicy,
    _build_request,
    _recv_msg,
    _send_msg,
    is_retryable,
    send_request,
)
from repro.sparkle import (
    FaultPlan,
    ServiceOverloadedError,
    SolveRequest,
    SparkleContext,
    TenantQuotaExceededError,
)
from repro.sparkle.tenancy import (
    BROWNOUT_LEVELS,
    BrownoutLadder,
    DeficitRoundRobin,
    TokenBucket,
)
from repro.workloads import random_digraph_weights

from .conftest import shm_entries
from .storms import run_noisy_neighbor_storm

pytestmark = pytest.mark.tenancy

SPEC = FloydWarshallGep()
KERNEL = make_kernel(SPEC, "iterative")
REPO_ROOT = Path(__file__).resolve().parents[1]


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
    """Direct (service-free) engine solve — THE bit-identity baseline."""
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


def _gate_solves(service: SolverService) -> threading.Event:
    """Block every engine pass on an event — freezes flights in-flight."""
    gate = threading.Event()
    original = service._solve
    service._solve = lambda req: (
        gate.wait(60),
        original(req),
    )[1]
    return gate


# ---------------------------------------------------------------------------
# TenantPolicy validation
# ---------------------------------------------------------------------------


class TestTenantPolicy:
    def test_defaults_are_permissive(self):
        policy = TenantPolicy()
        assert policy.weight == 1
        assert policy.quota_bytes is None
        assert policy.rate is None

    @pytest.mark.parametrize(
        "kw",
        [
            {"weight": 0},
            {"weight": 1.5},
            {"quota_bytes": -1},
            {"rate": 0.0},
            {"rate": -2.0},
            {"burst": 0},
        ],
    )
    def test_invalid_knobs_are_refused(self, kw):
        with pytest.raises(ValueError):
            TenantPolicy(**kw)


# ---------------------------------------------------------------------------
# TokenBucket under a fake clock: the grant schedule is pure
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_grant_schedule_is_a_pure_function_of_the_clock(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2, clock=lambda: now[0])
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()  # burst exhausted at t=0
        assert bucket.retry_after() == pytest.approx(0.5)
        now[0] = 0.5  # one token refilled
        assert bucket.retry_after() == 0.0
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_tokens_cap_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=10.0, burst=3, clock=lambda: now[0])
        now[0] = 100.0  # a long idle stretch earns no extra credit
        grants = sum(bucket.try_take() for _ in range(10))
        assert grants == 3


# ---------------------------------------------------------------------------
# DeficitRoundRobin: weighted interleave, per-tenant FIFO, idle retirement
# ---------------------------------------------------------------------------


class TestDeficitRoundRobin:
    def _queue(self, weights):
        return DeficitRoundRobin(weight_of=lambda t: weights.get(t, 1))

    def test_weighted_interleave_two_to_one(self):
        q = self._queue({"a": 2, "b": 1})
        for i in range(6):
            q.push("a", f"a{i}")
        for i in range(3):
            q.push("b", f"b{i}")
        order = [q.pop() for _ in range(9)]
        assert order == ["a0", "a1", "b0", "a2", "a3", "b1", "a4", "a5", "b2"]
        with pytest.raises(IndexError):
            q.pop()

    def test_fifo_within_a_tenant(self):
        q = self._queue({})
        for i in range(5):
            q.push("only", i)
        assert [q.pop() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_idle_tenants_earn_no_deficit_credit(self):
        # 'heavy' goes idle mid-run; on reactivation it restarts with a
        # clean deficit instead of bursting on banked credit.
        q = self._queue({"heavy": 3, "light": 1})
        q.push("heavy", "h0")
        assert q.pop() == "h0"  # heavy drains and retires
        for i in range(3):
            q.push("light", f"l{i}")
        q.push("heavy", "h1")
        # light was first in rotation; heavy re-joined at the back and
        # gets its 3:1 share only from here on — no retroactive burst.
        order = [q.pop() for _ in range(4)]
        assert order == ["l0", "h1", "l1", "l2"]

    def test_depth_tenants_len_and_drain(self):
        q = self._queue({"a": 2})
        q.push("a", 1)
        q.push("a", 2)
        q.push(None, 3)  # anonymous requests share the None queue
        assert len(q) == 3
        assert tuple(q.tenants()) == ("a", None)
        assert q.drain() == [1, 2, 3]
        assert len(q) == 0
        assert tuple(q.tenants()) == ()


# ---------------------------------------------------------------------------
# BrownoutLadder: deterministic transitions, fast escalation, slow recovery
# ---------------------------------------------------------------------------


class TestBrownoutLadder:
    def test_target_scores(self):
        ladder = BrownoutLadder(max_queue_depth=8)
        assert ladder.target("ok", 0) == 0
        assert ladder.target("pressured", 0) == 0  # score 1 is still normal
        assert ladder.target("critical", 0) == 1
        assert ladder.target("ok", 5) == 0  # depth > max//2
        assert ladder.target("ok", 8) == 1  # both depth bumps
        assert ladder.target("pressured", 8) == 2
        assert ladder.target("critical", 8) == 2  # capped at shed

    def test_escalates_in_one_jump_decays_one_rung_at_a_time(self):
        ladder = BrownoutLadder(max_queue_depth=4)
        observations = [
            ("ok", 0),
            ("pressured", 0),  # score 1: still normal
            ("pressured", 3),
            ("ok", 0),
            ("critical", 4),   # straight to shed
            ("ok", 0),         # one quiet sample: only one rung back
            ("critical", 0),   # holds degrade
            ("ok", 0),
            ("ok", 0),         # already normal: no transition
            ("ok", 0),
            ("ok", 4),
            ("pressured", 4),
            ("ok", 0),
        ]
        transitions, rungs = [], []
        for pressure, depth in observations:
            transitions.append(ladder.evaluate(pressure, depth))
            rungs.append(ladder.name)
        assert transitions == [
            None,
            None,
            "normal->degrade",
            "degrade->normal",
            "normal->shed",
            "shed->degrade",
            None,
            "degrade->normal",
            None,
            None,
            "normal->degrade",
            "degrade->shed",
            "shed->degrade",
        ]
        # The decisions the service takes from the rung: an IM pass is
        # served on CB at degrade and above, tenants are shed at shed.
        degraded = [i for i, r in enumerate(rungs) if r != "normal"]
        shed = [i for i, r in enumerate(rungs) if r == "shed"]
        assert degraded == [2, 4, 5, 6, 10, 11, 12]
        assert shed == [4, 11]
        assert BROWNOUT_LEVELS == ("normal", "degrade", "shed")


# ---------------------------------------------------------------------------
# enforced quotas: typed refusals, release on settle, cache charging
# ---------------------------------------------------------------------------


class TestQuotaEnforcement:
    def test_error_is_typed_retryable_and_pickle_safe(self):
        exc = TenantQuotaExceededError(
            "over", tenant="acme", used_bytes=10, quota_bytes=8,
            retry_after=0.5,
        )
        assert is_retryable(exc)
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is TenantQuotaExceededError
        assert (clone.tenant, clone.used_bytes, clone.quota_bytes,
                clone.retry_after) == ("acme", 10, 8, 0.5)

    @pytest.mark.timeout(120)
    def test_quota_on_unbudgeted_context_is_enforced(self):
        # the tenant ledger is an overlay on the governor, independent
        # of its byte budget: a context built without one still has a
        # (unbounded) governor, so quotas are enforced, not refused
        charge = _table().nbytes * 3  # tenant_charge_factor default
        sc = _context()  # no memory_budget_bytes
        assert not sc.memory_manager.bounded
        config = ServiceConfig(
            tenant_policies={"capped": TenantPolicy(quota_bytes=charge)},
        )
        service = SolverService(sc, config=config)
        gate = _gate_solves(service)
        try:
            first = service.submit(_request(0, tenant="capped"))
            with pytest.raises(TenantQuotaExceededError) as exc_info:
                service.submit(_request(1, tenant="capped"))
            assert exc_info.value.tenant == "capped"
            assert exc_info.value.used_bytes == charge
            assert exc_info.value.quota_bytes == charge
            other = service.submit(_request(2, tenant="free"))
            assert service.metrics.quota_rejections == 1
            gate.set()
            assert first.result(120).result.tobytes() == _reference(0).tobytes()
            assert other.result(120)
        finally:
            gate.set()
            service.stop()
            sc.stop()

    @pytest.mark.timeout(120)
    def test_serve_cli_accepts_quota_without_memory_budget(self):
        sock_dir = tempfile.mkdtemp(prefix="repro-tnc-")
        sock = os.path.join(sock_dir, "s.sock")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--executors", "2", "--cores", "1",
             "--tenant-quota", "capped=1048576"],
            cwd=str(REPO_ROOT),
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            _wait_ready(sock, proc)
            stats = send_request(sock, {"op": "stats"}, retries=2)
            assert stats["tenants"] == {
                "capped": {"held_bytes": 0, "quota_bytes": 1048576}
            }
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, f"drain failed:\n{out}"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            if os.path.exists(sock):
                os.unlink(sock)
            os.rmdir(sock_dir)

    @pytest.mark.timeout(180)
    def test_request_cli_round_trip_and_dead_socket(self):
        """``repro request`` end to end: the result it saves is the
        solve of the input ``make_problem`` builds from its arguments,
        bit for bit; the repeat is a cache hit; ``--stats`` reads the
        service's counters; and an unreachable socket is one line on
        stderr and exit 1, not a traceback."""
        from repro.core import floyd_warshall
        from repro.workloads import make_problem

        def request(sock, *args):
            return subprocess.run(
                [sys.executable, "-m", "repro", "request", "--socket", sock, *args],
                cwd=str(REPO_ROOT), env=env, capture_output=True, text=True,
                timeout=120,
            )

        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        with tempfile.TemporaryDirectory(prefix="repro-tnc-") as tmp:
            sock = os.path.join(tmp, "s.sock")
            out_path = os.path.join(tmp, "apsp.npy")
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--socket", sock,
                 "--executors", "2", "--cores", "1"],
                cwd=str(REPO_ROOT), env=env,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            try:
                _wait_ready(sock, proc)
                runs = [
                    request(sock, "apsp", "--n", "16", "--output", out_path)
                    for _ in range(2)
                ]
                for run in runs:
                    assert run.returncode == 0, run.stderr
                assert "(cache hit)" not in runs[0].stdout
                assert "(cache hit)" in runs[1].stdout
                # the request's defaults: seed 0, density 0.3, r 4
                _spec, table = make_problem("apsp", 16, 0, 0.3)
                expect = floyd_warshall(table, engine="local", r=4)
                assert np.load(out_path).tobytes() == expect.tobytes()
                stats = request(sock, "--stats")
                assert stats.returncode == 0, stats.stderr
                assert any(
                    line.split() == ["cache_hits", "1"]
                    for line in stats.stdout.splitlines()
                ), stats.stdout
                proc.send_signal(signal.SIGTERM)
                out, _ = proc.communicate(timeout=60)
                assert proc.returncode == 0, f"drain failed:\n{out}"
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=30)
            dead = request(sock, "apsp", "--n", "16")
            assert dead.returncode == 1
            assert "Traceback" not in dead.stderr
            assert dead.stderr.count("\n") == 1 and sock in dead.stderr

    @pytest.mark.timeout(120)
    def test_breach_refuses_only_the_breacher_and_releases_on_settle(self):
        charge = _table().nbytes * 3  # tenant_charge_factor default
        # room for one in-flight solve plus its cached result — but not
        # for a second concurrent flight
        quota = charge + _table().nbytes
        sc = _context(memory_budget_bytes=64 << 20)
        config = ServiceConfig(
            tenant_policies={"capped": TenantPolicy(quota_bytes=quota)},
        )
        service = SolverService(sc, config=config)
        gate = _gate_solves(service)
        try:
            first = service.submit(_request(0, tenant="capped"))
            with pytest.raises(TenantQuotaExceededError) as exc_info:
                service.submit(_request(1, tenant="capped"))
            err = exc_info.value
            assert err.tenant == "capped"
            assert err.used_bytes == charge
            assert err.quota_bytes == quota
            assert err.retry_after is not None
            # nobody else's state was touched: an unquota'd tenant and
            # the anonymous queue both admit fine
            other = service.submit(_request(2, tenant="free"))
            anon = service.submit(_request(3))
            assert service.metrics.quota_rejections == 1
            assert (
                service.metrics.per_tenant["capped"]["quota_rejections"] == 1
            )
            gate.set()
            result = first.result(120).result
            assert result.tobytes() == _reference(0).tobytes()
            assert other.result(120)
            assert anon.result(120)
            # the flight charge was released at settlement; what remains
            # attributed is exactly the tenant's cached result bytes
            held = sc.memory_manager.tenant_usage()["capped"]["held_bytes"]
            assert held == result.nbytes
            # ... so the previously refused solve now fits
            retry = service.solve(_request(1, tenant="capped"), timeout=120)
            assert retry.result.tobytes() == _reference(1).tobytes()
        finally:
            gate.set()
            service.stop()
            sc.stop()

    @pytest.mark.timeout(120)
    def test_cache_charge_breach_skips_caching_never_evicts_others(self):
        # quota exactly equals the in-flight charge: the flight fits, but
        # at settlement the cached-result charge would breach — so the
        # result is simply not cached for this tenant; no other tenant's
        # cache entry is sacrificed to make room.
        charge = _table().nbytes * 3
        sc = _context(memory_budget_bytes=64 << 20)
        config = ServiceConfig(
            tenant_policies={"tight": TenantPolicy(quota_bytes=charge)},
        )
        service = SolverService(sc, config=config)
        try:
            assert service.solve(_request(0, tenant="rich"), timeout=120)
            assert service.solve(_request(1, tenant="tight"), timeout=120)
            assert service.metrics.engine_passes == 2
            # tight's result never made the cache: same request is a miss
            again = service.solve(_request(1, tenant="tight"), timeout=120)
            assert not again.from_cache
            assert service.metrics.engine_passes == 3
            # rich's entry survived untouched
            hit = service.solve(_request(0, tenant="rich"), timeout=120)
            assert hit.from_cache
            held = sc.memory_manager.tenant_usage()["tight"]["held_bytes"]
            assert held == 0
        finally:
            service.stop()
            sc.stop()

    def test_refused_put_on_a_full_cache_evicts_nobody(self):
        from repro.service import ResultCache
        from repro.sparkle.memory import MemoryManager
        from repro.sparkle.metrics import ServiceMetrics

        memory, metrics = MemoryManager(None), ServiceMetrics()
        memory.set_tenant_quota("hog", 0)
        cache = ResultCache(2, memory, metrics)
        assert cache.put("a", _table(seed=0), tenant="victim")
        assert cache.put("b", _table(seed=1), tenant="victim")
        assert not cache.put("c", _table(seed=2), tenant="hog")
        assert len(cache) == 2 and metrics.cache_evictions == 0
        assert memory.tenant_usage()["hog"]["held_bytes"] == 0


# ---------------------------------------------------------------------------
# token-bucket admission rate limit
# ---------------------------------------------------------------------------


class TestRateLimit:
    @pytest.mark.timeout(120)
    def test_over_rate_tenant_is_refused_with_retry_after(self):
        sc = _context()
        config = ServiceConfig(
            tenant_policies={
                "chatty": TenantPolicy(rate=0.001, burst=1),
            },
        )
        service = SolverService(sc, config=config)
        try:
            assert service.solve(_request(0, tenant="chatty"), timeout=120)
            with pytest.raises(TenantQuotaExceededError) as exc_info:
                service.submit(_request(1, tenant="chatty"))
            assert exc_info.value.tenant == "chatty"
            assert exc_info.value.retry_after > 0
            assert is_retryable(exc_info.value)
            assert service.metrics.rate_limited == 1
            assert service.metrics.per_tenant["chatty"]["rate_limited"] == 1
            # unlimited tenants are unaffected
            assert service.solve(_request(2, tenant="quiet"), timeout=120)
        finally:
            service.stop()
            sc.stop()


# ---------------------------------------------------------------------------
# brownout effects on live passes: degrade (bit-identical), shed
# ---------------------------------------------------------------------------


class TestBrownoutEffects:
    @pytest.mark.timeout(180)
    def test_degrade_rung_serves_im_on_cb_bit_identical(self):
        sc = _context()
        service = SolverService(sc)
        seen = []
        original = service._solve
        service._solve = lambda req: (
            seen.append(req.strategy),
            original(req),
        )[1]
        try:
            service.ladder.level = 1  # degrade
            out = service._run_engine_pass(_request(0, strategy="im"), None)
            assert seen == ["cb"]  # the PR 3 latch, by request rewrite
            assert out.tobytes() == _reference(0).tobytes()
            assert service.metrics.brownout_degrades == 1
        finally:
            service.stop()
            sc.stop()

    @pytest.mark.timeout(120)
    def test_disarmed_brownout_leaves_passes_alone(self):
        sc = _context()
        service = SolverService(sc, config=ServiceConfig(brownout=False))
        observed = []
        service._solve = lambda req: (
            observed.append(req.strategy),
            np.zeros((2, 2), dtype=SPEC.dtype),
        )[1]
        try:
            service.ladder.level = 2
            service._run_engine_pass(_request(0, strategy="im"), None)
            assert observed == ["im"]
            assert service.metrics.brownout_degrades == 0
        finally:
            service.stop()
            sc.stop()

    @pytest.mark.timeout(180)
    def test_shed_rung_refuses_lowest_weight_tenants_only(self):
        sc = _context(memory_budget_bytes=32 << 20)
        config = ServiceConfig(
            max_queue_depth=4,
            tenant_policies={
                "heavy": TenantPolicy(weight=3),
                "light": TenantPolicy(weight=1),
            },
        )
        service = SolverService(sc, config=config)
        gate = _gate_solves(service)
        mm = sc.memory_manager
        ballast = int(mm.budget_bytes * 0.95)
        try:
            tickets = [
                service.submit(_request(seed, tenant="heavy"))
                for seed in range(4)
            ]
            mm.reserve("execution", "test-ballast", ballast, force=True)
            # the lighter tenant is brownout-shed with a typed hint...
            with pytest.raises(ServiceOverloadedError) as light_exc:
                service.submit(_request(9, tenant="light"))
            assert light_exc.value.level == "brownout"
            assert light_exc.value.retry_after is not None
            assert is_retryable(light_exc.value)
            assert service.metrics.brownout_sheds == 1
            assert service.metrics.per_tenant["light"]["sheds"] == 1
            # ... while the heaviest tenant is never brownout-shed: it
            # falls through to the plain critical-pressure admission gate
            with pytest.raises(ServiceOverloadedError) as heavy_exc:
                service.submit(_request(10, tenant="heavy"))
            assert heavy_exc.value.level == "critical"
            assert service.metrics.brownout_sheds == 1  # unchanged
            # transitions are metered and clear on read
            transitions = service.metrics.drain_brownout_transitions()
            assert any(t.endswith("->shed") for t in transitions)
            assert service.metrics.drain_brownout_transitions() == []
            assert service.metrics.brownout_level == "shed"
            mm.release("execution", "test-ballast", ballast)
            gate.set()
            for ticket in tickets:
                assert ticket.result(120)
        finally:
            mm.release("execution", "test-ballast", ballast)
            gate.set()
            service.stop()
            sc.stop()

    @pytest.mark.timeout(180)
    def test_equal_weights_brownout_shed_nobody(self):
        sc = _context(memory_budget_bytes=32 << 20)
        config = ServiceConfig(max_queue_depth=4)
        service = SolverService(sc, config=config)
        gate = _gate_solves(service)
        mm = sc.memory_manager
        ballast = int(mm.budget_bytes * 0.95)
        try:
            tickets = [
                service.submit(_request(seed, tenant="a")) for seed in range(4)
            ]
            mm.reserve("execution", "test-ballast", ballast, force=True)
            with pytest.raises(ServiceOverloadedError) as exc_info:
                service.submit(_request(9, tenant="b"))
            # equal weights: never the brownout gate, only the plain one
            assert exc_info.value.level == "critical"
            assert service.metrics.brownout_sheds == 0
            mm.release("execution", "test-ballast", ballast)
            gate.set()
            for ticket in tickets:
                assert ticket.result(120)
        finally:
            mm.release("execution", "test-ballast", ballast)
            gate.set()
            service.stop()
            sc.stop()


# ---------------------------------------------------------------------------
# the acceptance soak: seeded noisy-neighbor storm, equal weights
# ---------------------------------------------------------------------------


class TestNoisyNeighborStorm:
    @pytest.mark.chaos
    @pytest.mark.timeout(300)
    def test_victim_keeps_weighted_share_and_results_stay_bit_identical(self):
        plan = FaultPlan.from_string("seed=7,noisy_neighbor=1.0")
        sc = _context()
        config = ServiceConfig(
            max_queue_depth=32,
            tenant_policies={
                "hog": TenantPolicy(weight=1),
                "victim": TenantPolicy(weight=1),
            },
        )
        service = SolverService(sc, config=config)
        pass_order: list[str] = []
        original = service._solve
        # No pass runs before every tenant's backlog is queued, so the
        # window below measures the weighted share, not how late the OS
        # started the victim's thread.
        queued = threading.Event()

        def _solve(req):
            queued.wait(timeout=60)
            pass_order.append(req.tenant)
            return original(req)

        service._solve = _solve

        def make_request(tenant: str, seq: int) -> SolveRequest:
            seed = {"hog": 1000, "victim": 2000}[tenant] + seq
            return SolveRequest(
                spec=SPEC, table=_table(16, seed), r=4, kernel=KERNEL,
                tenant=tenant,
            )

        try:
            outcomes = run_noisy_neighbor_storm(
                service, make_request, requests_per_tenant=4, plan=plan,
                queued=queued,
            )
        finally:
            service.stop()
            sc.stop()

        # the seeded hog actually fired (seed=7 bursts: 3,2,2,1)
        assert plan.fired()["noisy_neighbor"] == 4
        assert [r["burst"] for r in outcomes["hog"]] == [3, 2, 2, 1]
        # same seed → same burst schedule (deterministic chaos)
        replay = FaultPlan.from_string("seed=7,noisy_neighbor=1.0")
        assert [replay.noisy_neighbor(0, s) for s in range(4)] == [3, 2, 2, 1]

        # the victim was never shed and every request completed
        assert all(r["ok"] for r in outcomes["victim"]), outcomes["victim"]
        assert service.metrics.per_tenant["victim"]["sheds"] == 0

        # bit-identical to solo runs of the same workloads
        for record in outcomes["victim"]:
            reference = _reference(2000 + record["seq"], n=16, r=4)
            assert (
                record["response"].result.tobytes() == reference.tobytes()
            ), f"victim seq {record['seq']} drifted under the storm"

        # fairness: within the contention window (up to the victim's
        # last settled pass), equal weights give the victim >= 40% of
        # engine passes no matter how hard the hog floods
        last = max(i for i, t in enumerate(pass_order) if t == "victim")
        window = pass_order[: last + 1]
        share = window.count("victim") / len(window)
        assert share >= 0.4, f"victim starved: {share:.2f} of {window}"

    @pytest.mark.chaos
    @pytest.mark.timeout(300)
    def test_storm_composes_with_mem_squeeze(self):
        plan = FaultPlan.from_string(
            "seed=23,noisy_neighbor=1.0,mem_squeeze=0.2"
        )
        sc = _context(memory_budget_bytes=256 << 20, fault_plan=plan)
        config = ServiceConfig(
            max_queue_depth=32,
            tenant_policies={
                "hog": TenantPolicy(weight=1),
                "victim": TenantPolicy(weight=1),
            },
        )
        service = SolverService(sc, config=config)

        def make_request(tenant: str, seq: int) -> SolveRequest:
            seed = {"hog": 3000, "victim": 4000}[tenant] + seq
            return SolveRequest(
                spec=SPEC, table=_table(16, seed), r=4, kernel=KERNEL,
                tenant=tenant,
            )

        try:
            outcomes = run_noisy_neighbor_storm(
                service, make_request, requests_per_tenant=3, plan=plan,
            )
        finally:
            service.stop()
            sc.stop()
        assert plan.fired()["noisy_neighbor"] >= 1
        assert all(r["ok"] for r in outcomes["victim"])
        for record in outcomes["victim"]:
            reference = _reference(4000 + record["seq"], n=16, r=4)
            assert (
                record["response"].result.tobytes() == reference.tobytes()
            )


# ---------------------------------------------------------------------------
# send_request honors retry_after (satellite: sleep-schedule regression)
# ---------------------------------------------------------------------------


def _fake_server(sock_path: str, replies: list) -> threading.Thread:
    """Serve canned replies, one connection each, then close."""
    server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    server.bind(sock_path)
    server.listen(4)

    def loop() -> None:
        try:
            for reply in replies:
                conn, _ = server.accept()
                try:
                    _recv_msg(conn)
                    _send_msg(conn, reply)
                finally:
                    conn.close()
        finally:
            server.close()

    thread = threading.Thread(target=loop, daemon=True)
    thread.start()
    return thread


class TestSendRequestRetrySchedule:
    @pytest.mark.timeout(60)
    def test_typed_refusals_sleep_exactly_retry_after(self, monkeypatch):
        sleeps: list[float] = []
        import repro.service as service_module

        monkeypatch.setattr(
            service_module.time, "sleep", lambda s: sleeps.append(s)
        )
        shed = {
            "status": "error",
            "error": ServiceOverloadedError(
                "busy", level="critical", retry_after=0.31
            ),
            "retryable": True,
        }
        ok = {"status": "ok", "state": "completed"}
        sock_dir = tempfile.mkdtemp(prefix="repro-tenancy-")
        sock = os.path.join(sock_dir, "s.sock")
        try:
            _fake_server(sock, [shed, shed, ok])
            reply = send_request(sock, {"op": "stats"}, retries=5)
            assert reply["status"] == "ok"
            # the server's hint, verbatim — not exponential backoff
            assert sleeps == [0.31, 0.31]
        finally:
            if os.path.exists(sock):
                os.unlink(sock)
            os.rmdir(sock_dir)

    @pytest.mark.timeout(60)
    def test_exhausted_attempts_return_the_last_typed_refusal(
        self, monkeypatch
    ):
        sleeps: list[float] = []
        import repro.service as service_module

        monkeypatch.setattr(
            service_module.time, "sleep", lambda s: sleeps.append(s)
        )
        quota = {
            "status": "error",
            "error": TenantQuotaExceededError(
                "over", tenant="acme", retry_after=0.07
            ),
            "retryable": True,
        }
        sock_dir = tempfile.mkdtemp(prefix="repro-tenancy-")
        sock = os.path.join(sock_dir, "s.sock")
        try:
            _fake_server(sock, [quota, quota, quota])
            reply = send_request(sock, {"op": "stats"}, retries=2)
            assert reply["status"] == "error"
            assert isinstance(reply["error"], TenantQuotaExceededError)
            assert sleeps == [0.07, 0.07]
        finally:
            if os.path.exists(sock):
                os.unlink(sock)
            os.rmdir(sock_dir)

    @pytest.mark.timeout(60)
    def test_transport_failures_keep_jittered_exponential_backoff(
        self, monkeypatch
    ):
        sleeps: list[float] = []
        import repro.service as service_module

        monkeypatch.setattr(
            service_module.time, "sleep", lambda s: sleeps.append(s)
        )
        missing = os.path.join(
            tempfile.mkdtemp(prefix="repro-tenancy-"), "nobody.sock"
        )
        with pytest.raises(OSError):
            send_request(missing, {"op": "stats"}, retries=3)
        assert len(sleeps) == 3
        for attempt, slept in enumerate(sleeps):
            base = min(0.05 * 2**attempt, 2.0)
            assert base * 0.5 <= slept < base * 1.5, (attempt, slept)
        os.rmdir(os.path.dirname(missing))


# ---------------------------------------------------------------------------
# hypothesis property: multi-tenant WAL replay settles exactly once,
# bit-identical, metered to the right tenant (satellite 4's in-process
# half; the real-SIGKILL half lives in test_service_resume.py's soak)
# ---------------------------------------------------------------------------


class TestTenantResumeProperty:
    @pytest.mark.durability
    @pytest.mark.timeout(600)
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        n_tenants=st.sampled_from([2, 3]),
        backend=st.sampled_from(["threads", "processes"]),
        seed=st.integers(min_value=0, max_value=2),
    )
    def test_replays_land_in_the_right_tenant_queues(
        self, n_tenants, backend, seed
    ):
        shm_before = shm_entries()
        tenants = [f"t{i}" for i in range(n_tenants)]
        with tempfile.TemporaryDirectory(prefix="repro-tenancy-") as tmp:
            first_life = RequestJournal(os.path.join(tmp, "journal"))
            payloads = {}
            for i, tenant in enumerate(tenants):
                payload = {
                    "problem": "apsp",
                    "n": 16,
                    "seed": seed + 10 * i,
                    "density": 0.4,
                    "r": 4,
                    "strategy": "im",
                    "tenant": tenant,
                }
                payloads[tenant] = payload
                first_life.admit(
                    f"{tenant}-key",
                    _build_request(payload).fingerprint(),
                    payload,
                )
            # ... the first life dies here, mid-flight, with every
            # admission durable and nothing settled
            sc = SparkleContext(
                num_executors=2,
                cores_per_executor=1,
                backend=backend,
                memory_budget_bytes=64 << 20,
            )
            journal = RequestJournal(os.path.join(tmp, "journal"))
            config = ServiceConfig(
                tenant_policies={
                    t: TenantPolicy(weight=i + 1)
                    for i, t in enumerate(tenants)
                },
            )
            service = SolverService(sc, config=config, journal=journal)
            try:
                tickets = service.resume()
                assert len(tickets) == n_tenants
                for ticket in tickets:
                    tenant = ticket.request.tenant
                    assert tenant in payloads  # tenant survived the WAL
                    reference = _reference(
                        payloads[tenant]["seed"], n=16, r=4
                    )
                    assert (
                        ticket.result(120).result.tobytes()
                        == reference.tobytes()
                    ), f"{tenant} drifted across the restart"
                # exactly one engine pass, metered to the right tenant
                for tenant in tenants:
                    counters = service.metrics.per_tenant[tenant]
                    assert counters["engine_passes"] == 1
                    assert counters["completed"] == 1
                    assert counters["sheds"] == 0
                # exactly-once settle in the WAL
                for tenant in tenants:
                    settled = journal.settled_lookup(f"{tenant}-key")
                    assert settled["outcome"] == "completed"
                settles = [
                    e for e in journal.wal.entries()
                    if e.get("kind") == "settled"
                ]
                assert len(settles) == n_tenants
                assert journal.incomplete() == []
                # no leaked tenant attribution: all that remains is each
                # tenant's cached result bytes
                for ticket in tickets:
                    held = sc.memory_manager.tenant_usage()[
                        ticket.request.tenant
                    ]["held_bytes"]
                    assert held == ticket.result(5).result.nbytes
            finally:
                service.stop()
                sc.stop()
        assert shm_entries() - shm_before == set()


# ---------------------------------------------------------------------------
# the real thing: SIGKILL a multi-tenant server mid-storm, --resume, and
# every tenant's acked work settles exactly once in its own queue
# ---------------------------------------------------------------------------


def _spawn_tenant_server(sock: str, journal_dir: str, *, resume: bool):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--socket", sock,
        "--journal-dir", journal_dir,
        "--executors", "2", "--cores", "1",
        "--max-queue-depth", "32",
        "--tenant-weight", "hog=1",
        "--tenant-weight", "victim=1",
    ]
    if resume:
        cmd.append("--resume")
    return subprocess.Popen(
        cmd, cwd=str(REPO_ROOT), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def _wait_ready(sock_path: str, proc, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"server died during startup (rc={proc.returncode}):\n"
                + proc.stdout.read()
            )
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        probe.settimeout(1.0)
        try:
            probe.connect(sock_path)
            return
        except OSError:
            time.sleep(0.05)
        finally:
            probe.close()
    raise AssertionError(f"server never listened on {sock_path}")


class TestMultiTenantCrashRestart:
    @pytest.mark.resilience
    @pytest.mark.chaos
    @pytest.mark.timeout(600)
    def test_sigkill_midstorm_settles_each_tenant_exactly_once(
        self, tmp_path
    ):
        tenants, per_tenant = ("hog", "victim"), 3
        # seed=1 fires driver_kill first at (client=0, seq=1) — mid-storm
        plan = FaultPlan.from_string("seed=1,driver_kill=0.25")
        base_seed = {"hog": 5000, "victim": 6000}
        sock_dir = tempfile.mkdtemp(prefix="repro-tnc-")
        sock = os.path.join(sock_dir, "s.sock")
        journal_dir = str(tmp_path / "journal")
        shm_before = shm_entries()

        state = {"proc": _spawn_tenant_server(sock, journal_dir, resume=False)}
        _wait_ready(sock, state["proc"])
        killed = threading.Event()
        kill_lock = threading.Lock()
        failures: list[str] = []
        outcomes: list[tuple[str, int, dict]] = []
        outcomes_lock = threading.Lock()

        def kill_and_restart() -> None:
            proc = state["proc"]
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            if proc.returncode != -signal.SIGKILL:
                failures.append(
                    f"first server exited rc={proc.returncode}, not SIGKILL"
                )
            state["proc"] = _spawn_tenant_server(
                sock, journal_dir, resume=True
            )
            try:
                _wait_ready(sock, state["proc"])
            except AssertionError as exc:
                failures.append(str(exc))

        def client_loop(client: int, tenant: str) -> None:
            for seq in range(per_tenant):
                if plan.driver_kill(client, seq) and not killed.is_set():
                    with kill_lock:
                        if not killed.is_set():
                            kill_and_restart()
                            killed.set()
                key = f"{tenant}-s{seq}"
                payload = {
                    "problem": "apsp",
                    "n": 16,
                    "seed": base_seed[tenant] + seq,
                    "density": 0.4,
                    "r": 4,
                    "strategy": "im",
                    "tenant": tenant,
                    "idempotency_key": key,
                    "return_result": True,
                    "timeout": 60,
                }
                try:
                    reply = send_request(sock, payload, timeout=60, retries=12)
                except OSError as exc:
                    failures.append(f"{key}: transport never recovered: {exc}")
                    continue
                with outcomes_lock:
                    outcomes.append((tenant, seq, reply))

        threads = [
            threading.Thread(
                target=client_loop, args=(i, t), name=f"tnc-{t}", daemon=True
            )
            for i, t in enumerate(tenants)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
            assert not any(t.is_alive() for t in threads), "storm deadlocked"
            assert not failures, failures
            assert killed.is_set(), "seeded driver_kill never fired"

            # every acked request, in every tenant, is bit-identical
            assert len(outcomes) == len(tenants) * per_tenant
            for tenant, seq, reply in outcomes:
                assert reply["status"] == "ok", f"{tenant}-s{seq}: {reply!r}"
                reference = _reference(base_seed[tenant] + seq, n=16, r=4)
                assert (
                    reply["result"].tobytes() == reference.tobytes()
                ), f"{tenant}-s{seq} drifted across the crash"

            # exactly-once per tenant key across both server lives
            completed = Counter()
            wal_path = Path(journal_dir) / "requests.wal"
            for line in wal_path.read_text().splitlines():
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn tail from the SIGKILL
                if (
                    record.get("kind") == "settled"
                    and record.get("outcome") == "completed"
                ):
                    completed[record["key"]] += 1
            double = {k: v for k, v in completed.items() if v > 1}
            assert not double, f"keys settled more than once: {double}"
            for tenant in tenants:
                for seq in range(per_tenant):
                    assert completed[f"{tenant}-s{seq}"] == 1

            # graceful drain prints the per-tenant breakdown
            proc = state["proc"]
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, f"drain failed:\n{out}"
            assert "per-tenant:" in out
            assert "hog" in out and "victim" in out
            assert not os.path.exists(sock), "socket file leaked"
        finally:
            proc = state["proc"]
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            if os.path.exists(sock):
                os.unlink(sock)
            os.rmdir(sock_dir)

        journal = RequestJournal(journal_dir)
        assert journal.incomplete() == []
        assert shm_entries() - shm_before == set()
