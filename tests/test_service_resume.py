"""Hot-restart recovery tests (DESIGN.md §16).

Covers :meth:`repro.service.SolverService.resume` in-process — WAL
replay through normal admission, deadline re-clamping against wall-clock
admission time, cache rehydration from the durable result spool,
idempotent replay for reconnecting clients, and cross-restart dedup by
key and by fingerprint — and closes with the resilience soak: a real
``repro serve`` subprocess SIGKILLed mid-storm at a seeded chaos point,
restarted with ``--resume``, with every acked request settling exactly
once, bit-identical to an in-process reference solve.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro.service
from repro.core.dpspark import GepSparkSolver, make_kernel
from repro.core.gep import FloydWarshallGep
from repro.service import (
    RequestJournal,
    SolverService,
    _build_request,
    send_request,
    serve_forever,
)
from repro.sparkle import FaultPlan, RequestDeadlineExceeded, SparkleContext

from .conftest import shm_entries

pytestmark = pytest.mark.service

SPEC = FloydWarshallGep()
KERNEL = make_kernel(SPEC, "iterative")
REPO_ROOT = Path(__file__).resolve().parents[1]

_REFERENCES: dict = {}


def _context(**kw) -> SparkleContext:
    kw.setdefault("num_executors", 2)
    kw.setdefault("cores_per_executor", 1)
    return SparkleContext(**kw)


def _payload(seed: int, *, n: int = 24, r: int = 6, **kw) -> dict:
    """The JSON-safe wire form of a request — what the WAL persists."""
    payload = {
        "problem": "apsp",
        "n": n,
        "seed": seed,
        "density": 0.4,
        "r": r,
        "strategy": "im",
    }
    payload.update(kw)
    return payload


def _reference(seed: int, *, n: int = 24, r: int = 6) -> np.ndarray:
    """Direct engine solve of the same wire payload (bit-identity base)."""
    key = (seed, n, r)
    if key not in _REFERENCES:
        sc = _context()
        try:
            solver = GepSparkSolver(
                SPEC, sc, r=r, kernel=KERNEL, collect_stats=False
            )
            table = _build_request(_payload(seed, n=n, r=r)).table
            out, _ = solver.solve(np.array(table))
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


class TestResume:
    @pytest.mark.timeout(300)
    def test_incomplete_admissions_replay_bit_identical(self, tmp_path):
        journal = RequestJournal(tmp_path / "journal")
        payload = _payload(5)
        fingerprint = _build_request(payload).fingerprint()
        journal.admit("k-1", fingerprint, payload, deadline=300.0,
                      admitted_unix=time.time() - 5.0)
        sc = _context()
        service = SolverService(sc, journal=journal)
        try:
            tickets = service.resume()
            assert len(tickets) == 1
            # the deadline was re-clamped to the remaining budget
            assert tickets[0].request.deadline < 300.0
            response = tickets[0].result(120)
            assert response.result.tobytes() == _reference(5).tobytes()
            assert service.metrics.journal_replayed == 1
            assert journal.incomplete() == []
            assert journal.settled_lookup("k-1")["outcome"] == "completed"
        finally:
            service.stop()
            sc.stop()

    @pytest.mark.timeout(300)
    def test_reconnecting_key_is_served_from_the_durable_spool(
        self, tmp_path
    ):
        # a previous life admitted, solved, settled — then the reply was
        # lost with the process
        payload = _payload(3)
        request = _build_request({**payload, "idempotency_key": "k-req"})
        fingerprint = request.fingerprint()
        reference = _reference(3)
        first_life = RequestJournal(tmp_path / "journal")
        first_life.admit("k-req", fingerprint, payload)
        first_life.settle("k-req", "completed", fingerprint=fingerprint,
                          result=reference)

        sc = _context()
        service = SolverService(
            sc, journal=RequestJournal(tmp_path / "journal")
        )
        try:
            response = service.solve(request, timeout=120)
            assert response.from_cache
            assert response.result.tobytes() == reference.tobytes()
            assert service.metrics.engine_passes == 0
            assert service.metrics.idempotent_replays == 1
        finally:
            service.stop()
            sc.stop()

    @pytest.mark.timeout(300)
    def test_expired_deadline_cancels_without_an_engine_pass(self, tmp_path):
        journal = RequestJournal(tmp_path / "journal")
        payload = _payload(2)
        fingerprint = _build_request(payload).fingerprint()
        journal.admit("k-late", fingerprint, payload, deadline=0.05,
                      admitted_unix=time.time() - 60.0)
        sc = _context()
        service = SolverService(sc, journal=journal)
        try:
            assert service.resume() == []
            assert service.metrics.engine_passes == 0
            assert service.metrics.deadline_cancelled == 1
            settled = journal.settled_lookup("k-late")
            assert settled["outcome"] == "deadline-cancelled"
            assert settled["error_type"] == "RequestDeadlineExceeded"
            assert journal.incomplete() == []
        finally:
            service.stop()
            sc.stop()

    @pytest.mark.timeout(300)
    def test_cache_rehydrates_from_the_spool(self, tmp_path):
        payload = _payload(4)
        fingerprint = _build_request(payload).fingerprint()
        reference = _reference(4)
        first_life = RequestJournal(tmp_path / "journal")
        first_life.admit("k-done", fingerprint, payload)
        first_life.settle("k-done", "completed", fingerprint=fingerprint,
                          result=reference)

        sc = _context(memory_budget_bytes=64 << 20)
        service = SolverService(
            sc, journal=RequestJournal(tmp_path / "journal")
        )
        try:
            service.resume()
            assert service.metrics.results_rehydrated == 1
            assert service.cache.live_bytes == reference.nbytes
            # an unkeyed request with the same fingerprint is a pure
            # cache hit — no engine pass after the restart
            response = service.solve(_build_request(payload), timeout=120)
            assert response.from_cache
            assert response.result.tobytes() == reference.tobytes()
            assert service.metrics.engine_passes == 0
        finally:
            service.stop()
            sc.stop()

    @pytest.mark.timeout(300)
    def test_replay_landing_on_rehydrated_cache_still_settles_the_wal(
        self, tmp_path
    ):
        # k-a completed (spooled); k-b — same fingerprint — was still in
        # flight at the crash.  Resume rehydrates the cache from k-a's
        # spooled result, so k-b's replay is a cache hit — which must
        # STILL settle k-b durably, or it would replay forever.
        payload = _payload(6)
        fingerprint = _build_request(payload).fingerprint()
        reference = _reference(6)
        first_life = RequestJournal(tmp_path / "journal")
        first_life.admit("k-a", fingerprint, payload)
        first_life.settle("k-a", "completed", fingerprint=fingerprint,
                          result=reference)
        first_life.admit("k-b", fingerprint, payload)

        sc = _context()
        journal = RequestJournal(tmp_path / "journal")
        service = SolverService(sc, journal=journal)
        try:
            tickets = service.resume()
            assert len(tickets) == 1
            assert tickets[0].result(120).from_cache
            assert service.metrics.engine_passes == 0
            assert journal.incomplete() == []
            assert journal.settled_lookup("k-b")["outcome"] == "completed"
        finally:
            service.stop()
            sc.stop()

    @pytest.mark.timeout(300)
    def test_duplicate_fingerprints_across_restart_share_one_engine_pass(
        self, tmp_path
    ):
        payload = _payload(7)
        fingerprint = _build_request(payload).fingerprint()
        journal = RequestJournal(tmp_path / "journal")
        journal.admit("k-a", fingerprint, payload)
        journal.admit("k-b", fingerprint, payload)
        sc = _context()
        service = SolverService(sc, journal=journal)
        gate = _gate_solves(service)
        try:
            tickets = service.resume()
            assert len(tickets) == 2
            gate.set()
            for ticket in tickets:
                assert (
                    ticket.result(120).result.tobytes()
                    == _reference(7).tobytes()
                )
            assert service.metrics.engine_passes == 1
            assert service.metrics.journal_replayed == 2
            assert journal.settled_lookup("k-a")["outcome"] == "completed"
            assert journal.settled_lookup("k-b")["outcome"] == "completed"
        finally:
            gate.set()
            service.stop()
            sc.stop()

    @pytest.mark.timeout(300)
    def test_client_retry_racing_the_replay_coalesces_by_key(self, tmp_path):
        payload = _payload(8)
        fingerprint = _build_request(payload).fingerprint()
        journal = RequestJournal(tmp_path / "journal")
        journal.admit("k-dup", fingerprint, payload)
        sc = _context()
        service = SolverService(sc, journal=journal)
        gate = _gate_solves(service)
        try:
            (replayed,) = service.resume()
            wal_len = len(journal.wal.entries())
            wire = {**payload, "idempotency_key": "k-dup"}
            retry = service.submit(_build_request(wire), wire=wire)
            assert retry.coalesced
            assert service.metrics.resume_coalesced == 1
            # the admission was already durable: nothing re-appended
            assert len(journal.wal.entries()) == wal_len
            gate.set()
            assert (
                retry.result(120).result.tobytes()
                == replayed.result(120).result.tobytes()
            )
            assert service.metrics.engine_passes == 1
            # both tickets share the key; it settled exactly once
            settles = [
                e for e in journal.wal.entries()
                if e.get("kind") == "settled" and e.get("key") == "k-dup"
            ]
            assert len(settles) == 1
        finally:
            gate.set()
            service.stop()
            sc.stop()

    @pytest.mark.timeout(300)
    def test_resume_requires_a_journal(self):
        sc = _context()
        service = SolverService(sc)
        try:
            with pytest.raises(RuntimeError, match="RequestJournal"):
                service.resume()
        finally:
            service.stop()
            sc.stop()


# ---------------------------------------------------------------------------
# the resilience soak: SIGKILL a real server mid-storm, restart --resume
# ---------------------------------------------------------------------------


def _spawn_server(sock: str, journal_dir: str, *, resume: bool):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--socket", sock,
        "--journal-dir", journal_dir,
        "--executors", "2", "--cores", "1",
        "--max-queue-depth", "32",
    ]
    if resume:
        cmd.append("--resume")
    return subprocess.Popen(
        cmd,
        cwd=str(REPO_ROOT),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
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


class TestCrashRestartSoak:
    @pytest.mark.resilience
    @pytest.mark.chaos
    @pytest.mark.timeout(600)
    def test_sigkill_midstorm_then_resume_settles_every_ack_exactly_once(
        self, tmp_path
    ):
        clients, per_client = 6, 3
        # seed=13 fires driver_kill first at (client=1, seq=1) — a
        # seeded mid-storm murder, not a hand-picked quiet moment
        plan = FaultPlan.from_string("seed=13,driver_kill=0.25")
        # AF_UNIX paths are capped at ~107 bytes; stay short and shared
        sock_dir = tempfile.mkdtemp(prefix="repro-soak-")
        sock = os.path.join(sock_dir, "s.sock")
        journal_dir = str(tmp_path / "journal")
        shm_before = shm_entries()

        state = {"proc": _spawn_server(sock, journal_dir, resume=False)}
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
            state["proc"] = _spawn_server(sock, journal_dir, resume=True)
            try:
                _wait_ready(sock, state["proc"])
            except AssertionError as exc:
                failures.append(str(exc))

        def client_loop(client: int) -> None:
            for seq in range(per_client):
                if plan.driver_kill(client, seq) and not killed.is_set():
                    with kill_lock:
                        if not killed.is_set():
                            kill_and_restart()
                            killed.set()
                key = f"c{client}-s{seq}"
                payload = _payload(
                    seq % 2,
                    client=f"client-{client}",
                    idempotency_key=key,
                    return_result=True,
                    timeout=60,
                )
                try:
                    reply = send_request(
                        sock, payload, timeout=60, retries=12
                    )
                except OSError as exc:
                    failures.append(f"{key}: transport never recovered: {exc}")
                    continue
                with outcomes_lock:
                    outcomes.append((key, seq % 2, reply))

        threads = [
            threading.Thread(target=client_loop, args=(c,), daemon=True)
            for c in range(clients)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
            assert not any(t.is_alive() for t in threads), "storm deadlocked"
            assert not failures, failures
            assert killed.is_set(), "seeded driver_kill never fired"
            assert plan.fired().get("driver_kill", 0) >= 1

            # every acked request returned the bit-identical result
            assert len(outcomes) == clients * per_client
            for key, seed, reply in outcomes:
                assert reply["status"] == "ok", f"{key}: {reply!r}"
                assert (
                    reply["result"].tobytes() == _reference(seed).tobytes()
                ), f"{key}: result drifted across the crash"

            # exactly-once-visible: scan the WAL (both lives append to
            # it; compaction has not run yet) — no key ever settled
            # "completed" twice
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
            assert completed, "no settles ever reached the WAL"
            double = {k: v for k, v in completed.items() if v > 1}
            assert not double, f"keys settled more than once: {double}"

            # graceful drain: SIGTERM → settle → checkpoint → unlink
            proc = state["proc"]
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, f"drain failed (rc={proc.returncode}):\n{out}"
            assert "service counters" in out
            assert not os.path.exists(sock), "socket file leaked"
        finally:
            proc = state["proc"]
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            if os.path.exists(sock):
                os.unlink(sock)
            os.rmdir(sock_dir)

        # the journal is checkpointed and internally consistent
        journal = RequestJournal(journal_dir)
        assert journal.torn_records == 0
        assert journal.incomplete() == []
        fsck = journal.spool.fsck()
        assert fsck.clean, f"spool damaged: {fsck}"
        assert fsck.orphans == [], "compaction leaked spool blocks"

        # nothing leaked in /dev/shm
        assert shm_entries() - shm_before == set()


# ---------------------------------------------------------------------------
# kept connections across restarts and drains: send_request holds one
# connection per thread, so a restart or a drain finds it open
# ---------------------------------------------------------------------------


def _serve(service: SolverService, sock: str, max_requests: int):
    ready = threading.Event()
    server = threading.Thread(
        target=serve_forever, args=(service, sock),
        kwargs={"max_requests": max_requests, "ready": ready}, daemon=True,
    )
    server.start()
    assert ready.wait(30), "server failed to bind"
    return server


class TestKeptConnections:
    @pytest.mark.durability
    @pytest.mark.timeout(300)
    def test_a_lost_reply_is_served_once_across_a_restart(
        self, tmp_path, monkeypatch
    ):
        sock = str(tmp_path / "s.sock")
        journal_dir = tmp_path / "journal"
        payload = _payload(9, idempotency_key="k-lost", return_result=True)
        send = repro.service._send_msg
        lost = threading.Event()

        def losing(conn, obj):
            # the first solve reply never reaches the client
            if "fingerprint" in obj and not lost.is_set():
                lost.set()
                raise BrokenPipeError("reply lost")
            send(conn, obj)

        monkeypatch.setattr(repro.service, "_send_msg", losing)
        sc = _context()
        first = SolverService(sc, journal=RequestJournal(journal_dir))
        first_server = _serve(first, sock, max_requests=2)
        second: dict = {}

        def restart() -> None:
            first_server.join(timeout=60)
            first.stop()
            second["service"] = SolverService(
                sc, journal=RequestJournal(journal_dir)
            )
            second["service"].resume()
            second["server"] = _serve(second["service"], sock, max_requests=1)

        restarter = threading.Thread(target=restart, daemon=True)
        try:
            # this thread's connection is open before the keyed request
            assert send_request(sock, {"op": "stats"})["status"] == "ok"
            restarter.start()
            reply = send_request(sock, payload, timeout=60, retries=10)
            restarter.join(timeout=60)
            assert lost.is_set() and "server" in second
            assert reply["status"] == "ok"
            assert reply["result"].tobytes() == _reference(9).tobytes()
            assert first.metrics.client_disconnects == 1
            assert second["service"].metrics.engine_passes == 0
            assert second["service"].metrics.idempotent_replays == 1
            second["server"].join(timeout=30)
            assert not second["server"].is_alive()
        finally:
            restarter.join(timeout=60)
            first.stop()
            if "service" in second:
                second["service"].stop()
            sc.stop()
        settles = [
            e for e in RequestJournal(journal_dir).wal.entries()
            if e.get("kind") == "settled" and e.get("key") == "k-lost"
        ]
        assert len(settles) == 1

    @pytest.mark.resilience
    @pytest.mark.timeout(120)
    def test_sigterm_drains_past_an_idle_kept_connection(self, tmp_path):
        sock_dir = tempfile.mkdtemp(prefix="repro-drain-")
        sock = os.path.join(sock_dir, "s.sock")
        proc = _spawn_server(sock, str(tmp_path / "journal"), resume=False)
        try:
            _wait_ready(sock, proc)
            reply = send_request(sock, _payload(2), timeout=60)
            assert reply["status"] == "ok"
            # this thread keeps its connection open and sends nothing more
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=10)
            assert proc.returncode == 0, out
            assert not os.path.exists(sock)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            if os.path.exists(sock):
                os.unlink(sock)
            os.rmdir(sock_dir)
