"""Worker supervision: heartbeats, deadlines, crash protocol, poison
quarantine, and graceful backend degradation.

The invariant family under test mirrors the chaos/durability suites:
a process-backend solve subjected to *real* OS-level worker faults
(SIGKILL, SIGSTOP) must complete bit-identical to a fault-free run,
respawn its workers, and leak neither processes nor ``/dev/shm``
entries — even when the driver itself dies uncleanly (atexit reaper) or
is SIGKILLed outright (the worker-side janitor).
"""

import glob
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dpspark import GepSparkSolver, make_kernel
from repro.core.gep import FloydWarshallGep
from repro.kernels import IterativeKernel
from repro.kernels.base import update_tiles
from repro.sparkle import (
    BlockNotFoundError,
    CorruptBlockError,
    ExecutorLost,
    FaultPlan,
    HeartbeatBoard,
    PoisonTaskError,
    ShuffleFetchFailed,
    SparkleContext,
    SupervisionConfig,
    TaskDeadlineExceeded,
    TaskError,
    WorkerCrashed,
    WorkerSupervisor,
    shm_supported,
)
from repro.sparkle.backend import ProcessBackend
from repro.sparkle.memory import MemoryManager
from repro.sparkle.metrics import EngineMetrics
from repro.sparkle.supervisor import COL_BEAT, COL_PID, COL_TOKEN

from .conftest import fw_table

pytestmark = [
    pytest.mark.supervision,
    pytest.mark.skipif(
        not shm_supported(), reason="needs multiprocessing.shared_memory"
    ),
]

REPO_ROOT = Path(__file__).resolve().parents[1]
SPEC = FloydWarshallGep()


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _leaked_children() -> list[tuple[int, str]]:
    """Child processes of this test process, minus the stdlib's
    ``resource_tracker`` (which legitimately lives for process
    lifetime once shared memory has been used)."""
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            if int(fields[1]) != me:
                continue
            with open(f"/proc/{entry}/cmdline") as fh:
                cmdline = fh.read().replace("\0", " ")
        except (OSError, IndexError, ValueError):
            continue
        if "resource_tracker" in cmdline:
            continue
        out.append((int(entry), cmdline))
    return out


def _pid_dead(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:
        return False
    # A zombie still answers signal 0; check the state field.
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


def _wait_until(predicate, timeout: float, period: float = 0.05) -> bool:
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(period)
    return predicate()


# ----------------------------------------------------------------------
# picklable kernels for worker-side behavior
# ----------------------------------------------------------------------
class SleepyKernel:
    """Never finishes inside the deadline (tests deadline enforcement)."""

    def run(self, case, x, u, v, w, gi0, gj0, gk0, n, stats=None):
        time.sleep(60.0)


class CrashyKernel:
    """SIGKILLs whatever process runs it — but only worker processes,
    so the driver-side thread fallback computes the real update."""

    def __init__(self, inner, driver_pid):
        self.inner = inner
        self.driver_pid = driver_pid

    def describe(self):
        return f"crashy({self.inner.describe()})"

    def run(self, case, x, u, v, w, gi0, gj0, gk0, n, stats=None):
        if os.getpid() != self.driver_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.run(
            case, x, u, v, w, gi0, gj0, gk0, n, stats=stats
        )


class PoisonTileKernel(IterativeKernel):
    """The iterative kernel, ``run_stacks`` included, except that a
    worker process running the tile at ``coordinate`` — alone or inside
    a stack — SIGKILLs itself."""

    def __init__(self, spec, driver_pid, coordinate):
        super().__init__(spec)
        self.driver_pid = driver_pid
        self.coordinate = coordinate

    def run(self, case, x, u, v, w, gi0, gj0, gk0, n, stats=None):
        offsets = zip(gi0, gj0) if x.ndim == 3 else [(gi0, gj0)]
        hit = any((i0, j0, gk0) == self.coordinate for i0, j0 in offsets)
        if hit and os.getpid() != self.driver_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().run(case, x, u, v, w, gi0, gj0, gk0, n, stats)


class SlowStackKernel(IterativeKernel):
    """Sleeps through any stack; a single tile runs as usual."""

    def run(self, case, x, *args, **kwargs):
        if x.ndim == 3:
            time.sleep(60.0)
        return super().run(case, x, *args, **kwargs)


def _stackable_calls(count):
    """``count`` independent case-D calls on 6x6 tiles of a 24x24 FW
    table — one stack on the iterative kernel."""
    rng = np.random.default_rng(count)

    def tile():
        return rng.uniform(1.0, 9.0, (6, 6))

    return [("D", tile(), tile(), tile(), None, 6 * i, 12, 18, 24) for i in range(count)]


# ----------------------------------------------------------------------
# config + board + backoff units
# ----------------------------------------------------------------------
class TestSupervisionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisionConfig(heartbeat_interval=-0.1)
        with pytest.raises(ValueError):
            SupervisionConfig(task_deadline=0.0)
        with pytest.raises(ValueError):
            SupervisionConfig(max_task_failures=0)

    def test_miss_after_is_twice_the_interval(self):
        cfg = SupervisionConfig(heartbeat_interval=0.2)
        assert cfg.miss_after == pytest.approx(0.4)
        assert cfg.heartbeats_enabled
        off = SupervisionConfig(heartbeat_interval=0.0)
        assert not off.heartbeats_enabled


class TestHeartbeatBoard:
    def test_claim_beat_token_reset(self):
        name = f"sparkle-test-hb-{os.getpid()}"
        board = HeartbeatBoard(2, name)
        try:
            assert board.pids() == []
            board.cells[0, COL_PID] = 1234
            board.cells[0, COL_BEAT] = 7
            board.cells[0, COL_TOKEN] = 42
            board.cells[1, COL_PID] = 5678
            assert sorted(board.pids()) == [1234, 5678]
            snap = board.snapshot()
            assert snap[0] == {"slot": 0, "pid": 1234, "beat": 7, "token": 42}
            board.reset_row(0)
            board.reset_row(1)
            assert board.pids() == []
        finally:
            board.destroy()
        assert glob.glob(f"/dev/shm/{name}") == []

    def test_destroy_is_idempotent(self):
        board = HeartbeatBoard(1, f"sparkle-test-hb2-{os.getpid()}")
        board.destroy()
        board.destroy()


class TestRespawnBackoff:
    def test_deterministic_bounded_schedule(self):
        cfg = SupervisionConfig(heartbeat_interval=0.0)
        a = WorkerSupervisor(cfg, slots=2, prefix="sparkle-bk-a", seed=11)
        b = WorkerSupervisor(cfg, slots=2, prefix="sparkle-bk-b", seed=11)
        try:
            sched_a = [a.respawn_delay(n) for n in range(1, 9)]
            sched_b = [b.respawn_delay(n) for n in range(1, 9)]
            assert sched_a == sched_b  # reproducible from the seed
            for n, delay in enumerate(sched_a, start=1):
                floor = min(0.05 * 2 ** (n - 1), 1.0)
                assert floor <= delay <= floor * 1.25
            # the exponential ramp caps out instead of growing unboundedly
            assert sched_a[-1] <= 1.25
            with pytest.raises(ValueError):
                a.respawn_delay(0)
        finally:
            a.destroy()
            b.destroy()

    def test_poison_ledger_and_degrade_latch(self):
        cfg = SupervisionConfig(heartbeat_interval=0.0, max_task_failures=2)
        sup = WorkerSupervisor(cfg, slots=1, prefix="sparkle-bk-c", seed=0)
        try:
            sig = ("k", "D", 0, 0, 0)
            assert sup.record_failure(sig) == 1
            assert sup.record_failure(sig) == 2
            assert not sup.is_quarantined(sig)
            assert not sup.degrade_pending()
            sup.quarantine(sig)
            assert sup.is_quarantined(sig)
            assert sup.quarantined() == [sig]
            assert sup.degrade_pending()  # latched ...
            assert not sup.degrade_pending()  # ... and clear-on-read
            sup.quarantine(sig)  # re-quarantine is a no-op
            assert not sup.degrade_pending()
        finally:
            sup.destroy()


# ----------------------------------------------------------------------
# typed errors survive the worker pickle boundary
# ----------------------------------------------------------------------
ERROR_SAMPLES = [
    (TaskError, ("boom", 3, 7), {"stage_id": 3, "partition": 7}),
    (ExecutorLost, ("gone", 2), {"executor": 2}),
    (ShuffleFetchFailed, (5, (1, 2)), {"shuffle_id": 5, "missing": (1, 2)}),
    (BlockNotFoundError, ("missing", ("rdd", 1)), {"key": ("rdd", 1)}),
    (CorruptBlockError, ("bad sum", ("rdd", 2)), {"key": ("rdd", 2)}),
    (WorkerCrashed, ("died", 1234, "worker_kill"),
     {"pid": 1234, "reason": "worker_kill"}),
    (TaskDeadlineExceeded, ("late", 1.5, 2.25),
     {"deadline": 1.5, "elapsed": 2.25}),
    (PoisonTaskError, ("poison", (0, 8, 0), "B", "deadbeef", 3),
     {"coordinate": (0, 8, 0), "case": "B", "kernel_id": "deadbeef",
      "failures": 3}),
]


def _raise_sample(index: int):
    """Worker body: construct and raise sample error ``index``."""
    cls, args, _attrs = ERROR_SAMPLES[index]
    raise cls(*args)


class TestErrorPickleSafety:
    @pytest.mark.parametrize(
        "cls,args,attrs", ERROR_SAMPLES, ids=[c.__name__ for c, _, _ in ERROR_SAMPLES]
    )
    def test_round_trip(self, cls, args, attrs):
        err = cls(*args)
        clone = pickle.loads(pickle.dumps(err))
        assert type(clone) is cls
        assert str(clone) == str(err)
        for attr, expected in attrs.items():
            assert getattr(clone, attr) == expected

    def test_raised_inside_worker(self):
        """concurrent.futures ships worker exceptions back by pickling
        them; every typed error must arrive intact, not as a
        ``BrokenProcessPool`` caused by an unpicklable exception."""
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=1) as pool:
            for index, (cls, _args, attrs) in enumerate(ERROR_SAMPLES):
                with pytest.raises(cls) as excinfo:
                    pool.submit(_raise_sample, index).result(timeout=60)
                for attr, expected in attrs.items():
                    assert getattr(excinfo.value, attr) == expected


# ----------------------------------------------------------------------
# backend-level: deadlines, crash protocol, poison quarantine
# ----------------------------------------------------------------------
def _run_backend_kernel(backend, blob, coordinate=(0, 0, 0)):
    x = np.zeros((4, 4))
    gi0, gj0, gk0 = coordinate
    return backend.run_kernel(
        blob, "D", x, x, x, x, gi0, gj0, gk0, 8, want_stats=False
    )


class TestDeadlineEnforcement:
    @pytest.mark.timeout(120)
    def test_running_overrun_is_killed_and_typed(self):
        metrics = EngineMetrics()
        backend = ProcessBackend(
            num_workers=1,
            metrics=metrics,
            supervision=SupervisionConfig(
                heartbeat_interval=0.0,
                task_deadline=0.4,
            ),
        )
        backend.supervisor.respawn_backoff_base = 0.0
        try:
            prefix = backend.supervisor.prefix
            start = time.monotonic()
            with pytest.raises(TaskDeadlineExceeded) as excinfo:
                _run_backend_kernel(backend, pickle.dumps(SleepyKernel()))
            elapsed = time.monotonic() - start
            assert excinfo.value.deadline == pytest.approx(0.4)
            assert excinfo.value.elapsed is not None
            assert excinfo.value.elapsed >= 0.4
            # enforcement is prompt: nowhere near the kernel's 60 s sleep
            assert elapsed < 30.0
            assert metrics.deadlines_exceeded == 1
            assert metrics.worker_crashes == 1
            assert metrics.workers_respawned >= 1
        finally:
            backend.shutdown()
        assert glob.glob(f"/dev/shm/{prefix}*") == []


class TestPoisonQuarantine:
    @pytest.mark.timeout(120)
    def test_quarantine_after_max_failures(self):
        metrics = EngineMetrics()
        backend = ProcessBackend(
            num_workers=1,
            metrics=metrics,
            supervision=SupervisionConfig(
                heartbeat_interval=0.0,
                max_task_failures=2,
            ),
        )
        backend.supervisor.respawn_backoff_base = 0.0
        inner = make_kernel(SPEC, "iterative")
        blob = pickle.dumps(CrashyKernel(inner, os.getpid()))
        try:
            prefix = backend.supervisor.prefix
            # 1st death: retryable
            with pytest.raises(WorkerCrashed):
                _run_backend_kernel(backend, blob)
            assert metrics.worker_crashes == 1
            assert not backend.supervisor.degrade_pending()
            # 2nd death of the same call: poison
            with pytest.raises(PoisonTaskError) as excinfo:
                _run_backend_kernel(backend, blob)
            assert excinfo.value.failures == 2
            assert excinfo.value.coordinate == (0, 0, 0)
            assert excinfo.value.case == "D"
            assert metrics.poison_tasks == 1
            assert backend.supervisor.degrade_pending()
            # 3rd call: refused up front — no fresh worker is sacrificed
            with pytest.raises(PoisonTaskError):
                _run_backend_kernel(backend, blob)
            assert metrics.worker_crashes == 2
            # a different coordinate is NOT quarantined
            out, _ = _run_backend_kernel(
                backend, pickle.dumps(inner), coordinate=(4, 4, 4)
            )
            assert out.shape == (4, 4)
        finally:
            backend.shutdown()
        assert glob.glob(f"/dev/shm/{prefix}*") == []


class TestStackedWorker:
    """The stack-token rule (DESIGN.md §13): a death in a batch's stacked
    phase charges no call and sends the batch's calls down the unstacked
    path, where a repeat death is charged to its exact call."""

    @staticmethod
    def _backend(metrics, **supervision):
        backend = ProcessBackend(
            num_workers=1,
            metrics=metrics,
            supervision=SupervisionConfig(heartbeat_interval=0.0, **supervision),
        )
        backend.supervisor.respawn_backoff_base = 0.0
        return backend

    @pytest.mark.timeout(120)
    def test_stack_death_charges_no_call_and_quarantine_names_the_tile(self):
        calls = _stackable_calls(4)
        culprit = tuple(calls[2][5:8])
        expect = [x.tobytes() for x in update_tiles(make_kernel(SPEC, "iterative"), calls)]
        metrics = EngineMetrics()
        backend = self._backend(metrics, max_task_failures=2)
        blob = pickle.dumps(PoisonTileKernel(SPEC, os.getpid(), culprit))
        try:
            prefix = backend.supervisor.prefix
            # 1st death, inside the stack: retryable, and no call is
            # charged — were one charged, the 2nd death would quarantine
            with pytest.raises(WorkerCrashed, match="no call charged"):
                backend.run_kernel_batch(blob, calls)
            # the retry runs one call per token: this death is the tile's
            with pytest.raises(WorkerCrashed, match=r"failure 1/2"):
                backend.run_kernel_batch(blob, calls)
            with pytest.raises(PoisonTaskError) as excinfo:
                backend.run_kernel_batch(blob, calls)
            assert excinfo.value.coordinate == culprit
            assert excinfo.value.case == "D"
            assert excinfo.value.failures == 2
            assert [sig[1:] for sig in backend.supervisor.quarantined()] == [
                ("D", *culprit)
            ]
            assert metrics.worker_crashes == 3 and metrics.poison_tasks == 1
            # the other calls still offload, stacked, with a sound kernel
            blob = pickle.dumps(make_kernel(SPEC, "iterative"))
            outs = backend.run_kernel_batch(blob, calls)
            assert [out.tobytes() for out, _ in outs] == expect
            assert metrics.worker_kernel_runs == 1
        finally:
            backend.shutdown()
        assert glob.glob(f"/dev/shm/{prefix}*") == []

    @pytest.mark.timeout(120)
    def test_deadline_inside_a_stack_is_typed_and_the_retry_completes(self):
        calls = _stackable_calls(4)
        expect = [x.tobytes() for x in update_tiles(make_kernel(SPEC, "iterative"), calls)]
        metrics = EngineMetrics()
        backend = self._backend(metrics, task_deadline=0.5)
        blob = pickle.dumps(SlowStackKernel(SPEC))
        try:
            prefix = backend.supervisor.prefix
            with pytest.raises(TaskDeadlineExceeded, match="stack") as excinfo:
                backend.run_kernel_batch(blob, calls)
            assert excinfo.value.deadline == pytest.approx(2.0)  # 0.5 s x 4
            assert metrics.deadlines_exceeded >= 1
            assert metrics.worker_crashes == 1
            outs = backend.run_kernel_batch(blob, calls)  # unstacked now
            assert [out.tobytes() for out, _ in outs] == expect
            assert metrics.worker_kernel_runs == 4
        finally:
            backend.shutdown()
        assert glob.glob(f"/dev/shm/{prefix}*") == []


# ----------------------------------------------------------------------
# end-to-end: seeded real worker faults through a full solve
# ----------------------------------------------------------------------
def _solve(sc, table, strategy="im", **solver_kw):
    solver = GepSparkSolver(
        SPEC,
        sc,
        r=3,
        kernel=make_kernel(SPEC, "iterative"),
        strategy=strategy,
        **solver_kw,
    )
    return solver.solve(table)


class TestWorkerKillAcceptance:
    @pytest.mark.timeout(300)
    def test_solve_survives_seeded_sigkill_bit_identical(self):
        table = fw_table(24, seed=3)
        with SparkleContext(2, 2) as sc:
            baseline, _ = _solve(sc, table)
        plan = FaultPlan.from_string("seed=7,worker_kill=0.25")
        with SparkleContext(
            2, 2, backend="processes", fault_plan=plan, heartbeat_interval=0.1
        ) as sc:
            out, _report = _solve(sc, table)
            summ = sc.metrics.summary("supervision")
            prefix = sc.offload.supervisor.prefix
        assert out.tobytes() == baseline.tobytes()
        assert plan.fired()["worker_kill"] >= 1
        assert summ["worker_crashes"] >= 1
        assert summ["workers_respawned"] >= 1
        assert summ["poison_tasks"] == 0  # retries land on attempt 1, clean
        # no leaked shm entry (the board is the only one under the prefix)
        assert glob.glob(f"/dev/shm/{prefix}*") == []
        assert _leaked_children() == []

    @pytest.mark.timeout(300)
    def test_hung_worker_detected_and_solve_completes(self):
        table = fw_table(16, seed=5)
        with SparkleContext(2, 2) as sc:
            baseline, _ = _solve(sc, table, strategy="im")
        plan = FaultPlan.from_string("seed=13,worker_hang=0.3")
        with SparkleContext(
            2, 2, backend="processes", fault_plan=plan, heartbeat_interval=0.1
        ) as sc:
            out, _report = _solve(sc, table, strategy="im")
            summ = sc.metrics.summary("supervision")
            prefix = sc.offload.supervisor.prefix
        assert out.tobytes() == baseline.tobytes()
        assert plan.fired()["worker_hang"] >= 1
        # the watchdog converted SIGSTOP silence into a metered kill
        assert summ["heartbeats_missed"] >= 1
        assert summ["worker_crashes"] >= 1
        assert summ["workers_respawned"] >= 1
        assert glob.glob(f"/dev/shm/{prefix}*") == []
        assert _leaked_children() == []


class TestDegradeOnCrash:
    @pytest.mark.timeout(300)
    def test_poison_falls_back_to_threads_bit_identical(self):
        table = fw_table(16, seed=2)
        # same r as the degraded run: tiling changes float association
        # order, so bit-identity is only promised at equal r
        with SparkleContext(2, 2) as sc:
            baseline, _ = GepSparkSolver(
                SPEC, sc, r=2, kernel=make_kernel(SPEC, "iterative"),
                strategy="im",
            ).solve(table)
        inner = make_kernel(SPEC, "iterative")
        crashy = CrashyKernel(inner, os.getpid())
        with SparkleContext(
            2,
            2,
            backend="processes",
            heartbeat_interval=0.1,
            max_task_failures=1,
        ) as sc:
            solver = GepSparkSolver(
                SPEC, sc, r=2, kernel=crashy, strategy="im",
                degrade_on_crash=True,
            )
            out, report = solver.solve(table)
            summ = sc.metrics.summary("supervision")
            prefix = sc.offload.supervisor.prefix
        assert out.tobytes() == baseline.tobytes()
        assert summ["poison_tasks"] >= 1
        assert summ["backend_degradations"] == 1
        degradations = report.extras["backend_degradations"]
        assert degradations[0]["from"] == "processes"
        assert degradations[0]["to"] == "threads"
        assert degradations[0]["quarantined_tasks"] >= 1
        assert glob.glob(f"/dev/shm/{prefix}*") == []

    @pytest.mark.timeout(120)
    def test_poison_without_degrade_flag_aborts(self):
        table = fw_table(8, seed=2)
        inner = make_kernel(SPEC, "iterative")
        crashy = CrashyKernel(inner, os.getpid())
        with SparkleContext(
            2, 2, backend="processes", heartbeat_interval=0.1,
            max_task_failures=1,
        ) as sc:
            solver = GepSparkSolver(SPEC, sc, r=2, kernel=crashy, strategy="im")
            with pytest.raises(PoisonTaskError):
                solver.solve(table)


# ----------------------------------------------------------------------
# Hypothesis property: faulted runs match fault-free, both backends
# ----------------------------------------------------------------------
_PROPERTY_TABLE = fw_table(12, seed=9)
_PROPERTY_BASELINE = {}


def _baseline(strategy: str) -> np.ndarray:
    out = _PROPERTY_BASELINE.get(strategy)
    if out is None:
        with SparkleContext(2, 1) as sc:
            solver = GepSparkSolver(
                SPEC, sc, r=2, kernel=make_kernel(SPEC, "iterative"),
                strategy=strategy,
            )
            out, _ = solver.solve(_PROPERTY_TABLE)
        _PROPERTY_BASELINE[strategy] = out
    return out


class TestWorkerFaultProperty:
    @pytest.mark.timeout(600)
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        strategy=st.sampled_from(["im", "cb", "bcast"]),
        backend=st.sampled_from(["threads", "processes"]),
        kind=st.sampled_from(["worker_kill", "worker_hang"]),
    )
    def test_faulted_solve_matches_fault_free(
        self, seed, strategy, backend, kind
    ):
        plan = FaultPlan.from_string(f"seed={seed},{kind}=0.2")
        with SparkleContext(
            2, 1, backend=backend, fault_plan=plan, heartbeat_interval=0.1
        ) as sc:
            solver = GepSparkSolver(
                SPEC, sc, r=2, kernel=make_kernel(SPEC, "iterative"),
                strategy=strategy,
            )
            out, _ = solver.solve(_PROPERTY_TABLE)
        assert out.tobytes() == _baseline(strategy).tobytes()


# ----------------------------------------------------------------------
# satellite: memory backpressure wait is event-driven, not a spin
# ----------------------------------------------------------------------
class TestAdmissionNoSpin:
    @pytest.mark.memory
    def test_blocked_admission_waits_by_notification(self):
        mm = MemoryManager(1000, task_quantum_bytes=600)
        waits = []
        original_wait = mm._cond.wait

        def counting_wait(timeout=None):
            waits.append(timeout)
            return original_wait(timeout)

        mm._cond.wait = counting_wait
        first = mm.admit_task()
        admitted = threading.Event()

        def second():
            grant = mm.admit_task()
            admitted.set()
            mm.finish_task(grant)

        thread = threading.Thread(target=second)
        thread.start()
        try:
            time.sleep(0.5)  # long enough for a 0.05 s poll to spin ~10×
            assert not admitted.is_set()
            mm.finish_task(first)
            # the release's notify wakes the waiter promptly ...
            assert admitted.wait(timeout=1.0)
        finally:
            thread.join(timeout=5.0)
        assert not thread.is_alive()
        # ... and the waiter never spun: one blocking wait (maybe two on
        # a spurious wakeup), each parked under the long safety-net
        # timeout rather than a sub-second poll interval.
        assert 1 <= len(waits) <= 2
        assert all(t is not None and t >= 5.0 for t in waits)


# ----------------------------------------------------------------------
# satellite: driver-death cleanup (atexit reaper + worker janitor)
# ----------------------------------------------------------------------
_DRIVER_SCRIPT_HEAD = """
import os, sys, pickle
import numpy as np
from repro.sparkle.backend import ProcessBackend
from repro.sparkle import SupervisionConfig

class IdentityKernel:
    def run(self, case, x, u, v, w, gi0, gj0, gk0, n, stats=None):
        x += 0.0

backend = ProcessBackend(
    num_workers=2,
    supervision=SupervisionConfig(heartbeat_interval=0.1),
)
x = np.zeros((4, 4))
blob = pickle.dumps(IdentityKernel())
backend.run_kernel(blob, "D", x, x, x, x, 0, 0, 0, 4)
print("PREFIX", backend.supervisor.prefix, flush=True)
print("WORKERS", *backend.supervisor.worker_pids(), flush=True)
"""


def _parse_driver_output(line_iter):
    prefix, workers = None, []
    for line in line_iter:
        if line.startswith("PREFIX "):
            prefix = line.split()[1]
        elif line.startswith("WORKERS"):
            workers = [int(p) for p in line.split()[1:]]
    return prefix, workers


class TestDriverDeathCleanup:
    @pytest.mark.timeout(120)
    def test_sigkilled_driver_leaks_nothing(self, tmp_path):
        """SIGKILL the driver mid-flight: atexit never runs, so the
        worker-side janitor must notice the orphaning, purge the shm
        segments, and exit."""
        script = _DRIVER_SCRIPT_HEAD + textwrap.dedent("""
            import time
            time.sleep(120)
        """)
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            env=_subprocess_env(), cwd=REPO_ROOT,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            lines = []
            while True:
                line = proc.stdout.readline()
                lines.append(line)
                if line.startswith("WORKERS"):
                    break
                assert line, "driver exited before reporting its workers"
            prefix, workers = _parse_driver_output(lines)
            assert prefix and workers
            os.kill(proc.pid, signal.SIGKILL)
            assert proc.wait(timeout=10) == -signal.SIGKILL
            # janitor poll is 0.25 s; give it generous slack
            assert _wait_until(
                lambda: all(_pid_dead(p) for p in workers), timeout=10.0
            ), f"orphaned workers survived: {workers}"
            assert _wait_until(
                lambda: glob.glob(f"/dev/shm/{prefix}*") == [], timeout=10.0
            ), f"leaked shm: {glob.glob(f'/dev/shm/{prefix}*')}"
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()

    @pytest.mark.timeout(120)
    def test_unclean_exit_runs_atexit_reaper(self):
        """`sys.exit` without `backend.shutdown()`: the atexit reaper
        must still reap the workers and unlink every segment."""
        script = _DRIVER_SCRIPT_HEAD + "sys.exit(7)\n"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=_subprocess_env(), cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 7, proc.stderr
        prefix, workers = _parse_driver_output(proc.stdout.splitlines())
        assert prefix and workers
        assert _wait_until(
            lambda: all(_pid_dead(p) for p in workers), timeout=10.0
        ), f"workers survived driver exit: {workers}"
        assert glob.glob(f"/dev/shm/{prefix}*") == []

    def test_backend_is_a_context_manager(self):
        metrics = EngineMetrics()
        with ProcessBackend(
            num_workers=1, metrics=metrics,
            supervision=SupervisionConfig(heartbeat_interval=0.0),
        ) as backend:
            prefix = backend.supervisor.prefix
            out, _ = _run_backend_kernel(
                backend, pickle.dumps(make_kernel(SPEC, "iterative"))
            )
            assert out.shape == (4, 4)
        assert glob.glob(f"/dev/shm/{prefix}*") == []
        with pytest.raises(RuntimeError, match="shut down"):
            _run_backend_kernel(backend, pickle.dumps(make_kernel(SPEC, "iterative")))
