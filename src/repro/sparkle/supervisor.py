"""Worker supervision: heartbeats, deadlines, and the crash protocol.

The process backend (DESIGN.md §12) put real OS processes on the hot
path; this module (§13) gives them the liveness layer Spark's executor
supervision provides on a real cluster.  Three cooperating pieces:

* :class:`HeartbeatBoard` — an anonymous shared int64 table, one row
  per worker slot: ``[pid, beat, token]``.  The driver allocates it
  and hands it to each worker through the pool initializer; worker
  ``i`` claims row ``i`` and a daemon thread bumps ``beat`` a few times
  per heartbeat interval; ``token`` is the supervised kernel call the
  worker is currently executing, which is how the driver maps a
  deadline overrun back to a killable pid.  The memory has no name, so
  it dies with the last process that maps it: nothing in ``/dev/shm``
  can outlive the plane.
* the **watchdog** — a driver-side daemon thread that scans the board
  every ``heartbeat_interval / 2``.  A claimed row whose ``beat`` has
  not advanced for ``2 × heartbeat_interval`` is declared hung: the
  miss is metered and the worker is SIGKILLed, deliberately converting
  an undetectable hang (SIGSTOP, C-loop livelock) into the crash the
  protocol below already handles.
* :class:`WorkerSupervisor` — the driver-side brain the backend calls
  into: issues call and stack tokens, keeps the per-task crash ledger
  (with the calls whose stacked phase killed a worker), decides
  poison quarantine after ``max_task_failures`` worker deaths, and owns
  the deterministic respawn backoff schedule.

Worker lifecycle (see DESIGN.md §13 for the full diagram)::

    SPAWNED -> REGISTERED -(beats)-> LIVE -(silence)-> HUNG -(SIGKILL)-+
                                      |                                |
                                      +--(exit/SIGKILL)--> DEAD <------+
                                                             |
                         pool respawn (backoff + jitter) <---+

Workers also run a *janitor* thread: if the driver pid they were
spawned by disappears (SIGKILLed driver — ``atexit`` never runs), they
exit — an orphaned worker holds both ends of its call queue and would
otherwise block forever — so an uncleanly-killed driver leaks no
process.

Everything here is deterministic under the chaos contract: the respawn
backoff is jittered by
:func:`~repro.sparkle.chaos.deterministic_fraction` of
``(seed, "respawn", n)``, and the real worker faults (``worker_kill`` /
``worker_hang`` / ``worker_oom``) are decided driver-side from the
seeded plan before the doomed call is even submitted.
"""

from __future__ import annotations

import ctypes
import itertools
import os
import signal
import threading
import time
from dataclasses import dataclass
from multiprocessing.sharedctypes import RawArray

import numpy as np

from .chaos import deterministic_fraction
from .metrics import EngineMetrics

__all__ = ["SupervisionConfig", "HeartbeatBoard", "WorkerSupervisor"]

# Board columns (int64 each).
COL_PID = 0
COL_BEAT = 1
COL_TOKEN = 2
BOARD_COLS = 3

#: How often the worker janitor re-checks that its driver is alive.
JANITOR_POLL_SECONDS = 0.25


@dataclass(frozen=True)
class SupervisionConfig:
    """Tunables for the worker supervision layer.

    Parameters
    ----------
    heartbeat_interval:
        Seconds between expected worker heartbeats; the watchdog declares
        a worker hung after ``2 ×`` this much silence.  ``0`` disables
        heartbeats and the watchdog (crash detection via
        ``BrokenProcessPool`` still works; hangs go undetected unless a
        task deadline is set).
    task_deadline:
        Per-kernel-call wall-clock budget in seconds; ``None`` disables.
        A task's batch of N calls gets N × this; an overrun cancels the
        batch if still queued, else SIGKILLs the worker running it.
    max_task_failures:
        Worker deaths one task may cause before it is quarantined as
        poison (:class:`~repro.sparkle.errors.PoisonTaskError`).

    The respawn backoff is :class:`WorkerSupervisor` class attributes —
    one value each in use, so not options.
    """

    heartbeat_interval: float = 0.25
    task_deadline: float | None = None
    max_task_failures: int = 3

    def __post_init__(self) -> None:
        if self.heartbeat_interval < 0:
            raise ValueError("heartbeat_interval must be >= 0 (0 disables)")
        if self.task_deadline is not None and self.task_deadline <= 0:
            raise ValueError("task_deadline must be > 0 (None disables)")
        if self.max_task_failures < 1:
            raise ValueError("max_task_failures must be >= 1")

    @property
    def heartbeats_enabled(self) -> bool:
        return bool(self.heartbeat_interval)

    @property
    def miss_after(self) -> float:
        """Silence that flags a worker as hung (the ISSUE's 2× bound)."""
        return 2.0 * self.heartbeat_interval


class HeartbeatBoard:
    """Driver-allocated liveness table, one row per slot, in anonymous
    shared memory (zero-filled; workers receive ``raw`` at start)."""

    def __init__(self, slots: int) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self.slots = slots
        self.raw = RawArray(ctypes.c_int64, slots * BOARD_COLS)
        self.cells = np.frombuffer(self.raw, dtype=np.int64).reshape(slots, BOARD_COLS)

    def pids(self) -> list[int]:
        """Pids of every claimed slot (racy by nature; reap tolerates)."""
        return [int(p) for p in self.cells[:, COL_PID] if int(p) > 0]

    def reset_row(self, slot: int) -> None:
        """Blank one row (single-slot pool respawn)."""
        if 0 <= slot < self.slots:
            self.cells[slot, :] = 0


class WorkerSupervisor:
    """Driver-side supervision brain for one process-backend pool."""

    #: bounded exponential backoff slept before re-forking a pool after
    #: its n-th crash: ``min(base·2^(n-1), cap) · (1 + jitter·h)`` with
    #: ``h`` a deterministic hash fraction (a test that wants no sleep
    #: sets these on its supervisor)
    respawn_backoff_base: float = 0.05
    respawn_backoff_cap: float = 1.0
    respawn_backoff_jitter: float = 0.25

    def __init__(
        self,
        config: SupervisionConfig,
        *,
        slots: int,
        metrics=None,
        seed: int = 0,
        kill=os.kill,
    ) -> None:
        self.config = config
        self.slots = slots
        self.metrics = metrics or EngineMetrics()
        self.seed = int(seed)
        self._kill = kill
        self.board: HeartbeatBoard | None = HeartbeatBoard(slots)
        self._board_lock = threading.Lock()
        self._tokens = itertools.count(1)
        self._ledger_lock = threading.Lock()
        self._failures: dict[tuple, int] = {}
        self._quarantined: set[tuple] = set()
        self._unstacked: set[tuple] = set()
        self._watchdog: threading.Thread | None = None
        self._watchdog_stop = threading.Event()

    # -- pool wiring ---------------------------------------------------
    def worker_initargs(self, slot: int) -> tuple:
        """Arguments for :func:`_attach_worker`, the pool initializer.

        ``slot`` is the board row the pool's one worker claims — pool
        ``i`` owns row ``i``, so the driver can map a slot to a pid (and
        the in-flight call token) and no two workers contend for a row.
        The board's shared array travels as an argument: inherited under
        ``fork``, its descriptor passed under ``spawn``.
        """
        return (
            self.board.raw,
            self.slots,
            self.config.heartbeat_interval,
            os.getpid(),
            slot,
        )

    def next_token(self) -> int:
        return next(self._tokens)

    def pid_for_slot(self, slot: int) -> int | None:
        """The pid claimed on board row ``slot`` (fixed-slot pools)."""
        with self._board_lock:
            board = self.board
            if board is None or not 0 <= slot < board.slots:
                return None
            pid = int(board.cells[slot, COL_PID])
            return pid or None

    def token_for_slot(self, slot: int) -> int:
        """The in-flight call token on row ``slot`` (0 = idle).

        A crashed worker's row keeps its last published token until the
        driver resets the slot, which is how a batch member's failure is
        attributed back to the exact tile that was executing.
        """
        with self._board_lock:
            board = self.board
            if board is None or not 0 <= slot < board.slots:
                return 0
            return int(board.cells[slot, COL_TOKEN])

    def kill_slot(self, slot: int) -> bool:
        """SIGKILL the one worker claimed on ``slot`` (if any)."""
        pid = self.pid_for_slot(slot)
        return self._signal(pid, signal.SIGKILL) if pid is not None else False

    def worker_pids(self) -> list[int]:
        with self._board_lock:
            return self.board.pids() if self.board else []

    def kill_workers(self) -> int:
        """SIGKILL every registered worker (reap before respawn)."""
        killed = 0
        for pid in self.worker_pids():
            if self._signal(pid, signal.SIGKILL):
                killed += 1
        return killed

    def reset_slot(self, slot: int) -> None:
        """Blank one row before respawning that slot's pool — the dead
        pid (and its stale token) must not linger for the watchdog or
        the batch attribution path to trip over."""
        with self._board_lock:
            if self.board is not None:
                self.board.reset_row(slot)

    def _signal(self, pid: int, sig: int) -> bool:
        if pid <= 0 or pid == os.getpid():
            return False
        try:
            self._kill(pid, sig)
            return True
        except (ProcessLookupError, PermissionError):
            return False

    # -- watchdog ------------------------------------------------------
    def start_watchdog(self) -> None:
        if (
            self._watchdog is not None
            or self.board is None
            or not self.config.heartbeats_enabled
        ):
            return
        self._watchdog_stop.clear()
        self._watchdog = threading.Thread(
            target=self._watch, name="sparkle-watchdog", daemon=True
        )
        self._watchdog.start()

    def stop_watchdog(self) -> None:
        thread, self._watchdog = self._watchdog, None
        if thread is not None:
            self._watchdog_stop.set()
            thread.join(timeout=5.0)

    def _watch(self) -> None:
        """Scan the board; SIGKILL workers silent past ``miss_after``.

        Tracking is keyed ``slot -> [beat, last_change, killed, pid]``;
        a slot whose pid changed (board reset + fresh claim) restarts its
        window.  ``last_change`` is watchdog-observed, so detection lands
        within one scan period past the 2× threshold.
        """
        period = max(self.config.heartbeat_interval / 2.0, 0.01)
        miss_after = self.config.miss_after
        seen: dict[int, list] = {}
        while not self._watchdog_stop.wait(period):
            now = time.monotonic()
            with self._board_lock:
                board = self.board
                if board is None:
                    continue
                for slot in range(board.slots):
                    pid = int(board.cells[slot, COL_PID])
                    if pid <= 0:
                        seen.pop(slot, None)
                        continue
                    beat = int(board.cells[slot, COL_BEAT])
                    entry = seen.get(slot)
                    if entry is None or entry[3] != pid:
                        seen[slot] = [beat, now, False, pid]
                        continue
                    if beat != entry[0]:
                        entry[0] = beat
                        entry[1] = now
                        continue
                    if not entry[2] and now - entry[1] > miss_after:
                        entry[2] = True
                        self.metrics.heartbeats_missed += 1
                        # Hang -> crash: the pool machinery takes over.
                        self._signal(pid, signal.SIGKILL)

    # -- crash ledger & poison quarantine ------------------------------
    def record_failure(self, task_sig: tuple) -> int:
        """Count one worker death against a task; returns its total."""
        with self._ledger_lock:
            count = self._failures.get(task_sig, 0) + 1
            self._failures[task_sig] = count
            return count

    def failures(self, task_sig: tuple) -> int:
        with self._ledger_lock:
            return self._failures.get(task_sig, 0)

    def quarantine(self, task_sig: tuple) -> None:
        """Mark a task as poison: its offloads are refused from now on."""
        with self._ledger_lock:
            if task_sig in self._quarantined:
                return
            self._quarantined.add(task_sig)
        self.metrics.poison_tasks += 1

    def is_quarantined(self, task_sig: tuple) -> bool:
        with self._ledger_lock:
            return task_sig in self._quarantined

    def unstack(self, task_sigs: list) -> None:
        """Mark the calls of a batch that died in its stacked phase: no
        one call is to blame, so none is charged, and their offloads run
        one call per token from now on — a repeat death names its call."""
        with self._ledger_lock:
            self._unstacked.update(task_sigs)

    def any_unstacked(self, task_sigs: list) -> bool:
        """Whether a batch holding these calls must run unstacked."""
        if not self._unstacked:  # the fault-free path takes no lock
            return False
        with self._ledger_lock:
            return any(sig in self._unstacked for sig in task_sigs)

    def quarantined(self) -> list[tuple]:
        with self._ledger_lock:
            return sorted(self._quarantined)

    # -- respawn backoff ----------------------------------------------
    def respawn_delay(self, respawn_index: int) -> float:
        """Deterministic bounded-exponential backoff before respawn n.

        ``min(base·2^(n-1), cap)``, stretched by up to ``jitter`` of
        itself by the chaos seed's hash of the respawn: reproducible,
        and capped so a crash storm cannot stall the solve unboundedly.
        """
        if respawn_index < 1:
            raise ValueError("respawn_index counts from 1")
        delay = min(
            self.respawn_backoff_base * 2.0 ** (respawn_index - 1),
            self.respawn_backoff_cap,
        )
        h = deterministic_fraction(self.seed, "respawn", (respawn_index,))
        return delay * (1.0 + self.respawn_backoff_jitter * h)

    # -- lifecycle -----------------------------------------------------
    def destroy(self) -> None:
        """Stop the watchdog and drop the board: the driver's mapping
        goes with the last reference, each worker's with its process."""
        self.stop_watchdog()
        with self._board_lock:
            self.board = None


# ----------------------------------------------------------------------
# worker-side machinery (module-level: importable under fork AND spawn)
# ----------------------------------------------------------------------
_WORKER_BOARD = {"cells": None, "slot": None}


def _attach_worker(
    raw, slots: int, beat_interval: float, driver_pid: int, slot: int
) -> None:  # pragma: no cover - runs in worker processes
    """Pool initializer: join the board, start beats + janitor.

    Best-effort by design — supervision must never be the thing that
    breaks a worker (an initializer exception marks the whole pool
    broken), so any failure here degrades to an unsupervised-but-working
    worker.

    The worker claims board row ``slot`` (every pool is a
    single-worker pool that owns one row), overwriting whatever pid is
    on it — by the respawn protocol the previous occupant is dead and
    the driver has reset the row, so the overwrite is only a
    belt-and-braces guard against a raced reset.
    """
    try:
        _start_janitor(driver_pid)
    except Exception:
        pass
    try:
        cells = np.frombuffer(raw, dtype=np.int64).reshape(slots, BOARD_COLS)
        if not 0 <= slot < slots:
            return
        cells[slot, COL_TOKEN] = 0
        cells[slot, COL_PID] = os.getpid()
        _WORKER_BOARD["cells"] = cells
        _WORKER_BOARD["slot"] = slot
        if beat_interval > 0:
            _start_beater(beat_interval)
    except Exception:
        pass


def _start_beater(interval: float) -> None:  # pragma: no cover - worker side
    """Bump this worker's beat word a few times per interval."""
    period = max(interval / 4.0, 0.005)

    def _beat() -> None:
        while True:
            cells, slot = _WORKER_BOARD["cells"], _WORKER_BOARD["slot"]
            if cells is None or slot is None:
                return
            cells[slot, COL_BEAT] += 1
            time.sleep(period)

    threading.Thread(target=_beat, name="sparkle-heartbeat", daemon=True).start()


def _start_janitor(driver_pid: int) -> None:  # pragma: no cover
    """Exit if our driver disappears out from under us."""

    def _janitor() -> None:
        while True:
            time.sleep(JANITOR_POLL_SECONDS)
            try:
                orphaned = os.getppid() != driver_pid
            except OSError:
                orphaned = True
            if orphaned:
                os._exit(3)

    threading.Thread(target=_janitor, name="sparkle-janitor", daemon=True).start()


def worker_begin_task(token: int) -> None:  # pragma: no cover - worker side
    """Publish the supervised call this worker is now executing."""
    cells, slot = _WORKER_BOARD["cells"], _WORKER_BOARD["slot"]
    if cells is not None and slot is not None:
        cells[slot, COL_TOKEN] = token
        cells[slot, COL_BEAT] += 1


def worker_end_task() -> None:  # pragma: no cover - worker side
    cells, slot = _WORKER_BOARD["cells"], _WORKER_BOARD["slot"]
    if cells is not None and slot is not None:
        cells[slot, COL_TOKEN] = 0
        cells[slot, COL_BEAT] += 1


def worker_self_fault(kind: str) -> None:  # pragma: no cover - worker side
    """Execute a driver-decided real process fault on ourselves."""
    if kind in ("worker_kill", "worker_oom"):
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == "worker_hang":
        # Freezes every thread, heartbeats included — exactly the
        # silence the watchdog exists to detect.
        os.kill(os.getpid(), signal.SIGSTOP)
    elif kind is not None:
        raise ValueError(f"unknown worker fault kind {kind!r}")
