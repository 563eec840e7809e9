"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import glob
import signal

import numpy as np
import pytest

from repro.core.gep import (
    FloydWarshallGep,
    GaussianEliminationGep,
    TransitiveClosureGep,
)
from repro.workloads import random_digraph_weights, weights_to_boolean

try:  # pragma: no cover - environment probe
    import pytest_timeout  # noqa: F401

    _HAVE_PYTEST_TIMEOUT = True
except ImportError:
    _HAVE_PYTEST_TIMEOUT = False

#: Per-test wall-clock ceiling (seconds) enforced by the SIGALRM
#: fallback below when the real ``pytest-timeout`` plugin is absent.
#: Generous on purpose: it exists to turn a hung test (e.g. a worker
#: supervision bug leaving a SIGSTOPped process blocking a future) into
#: a loud failure instead of a wedged CI job, not to police slowness.
FALLBACK_TEST_TIMEOUT = 300.0


if not _HAVE_PYTEST_TIMEOUT and hasattr(signal, "SIGALRM"):

    def pytest_configure(config):
        # Accept @pytest.mark.timeout(...) so tests can declare tighter
        # ceilings portably whether or not the plugin is installed.
        config.addinivalue_line(
            "markers",
            "timeout(seconds): per-test wall-clock ceiling (fallback "
            "implementation; SIGALRM-based, main-thread only)",
        )

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_call(item):
        marker = item.get_closest_marker("timeout")
        seconds = FALLBACK_TEST_TIMEOUT
        if marker is not None and marker.args:
            seconds = float(marker.args[0])

        def _expired(signum, frame):
            raise TimeoutError(
                f"test exceeded the {seconds:g}s wall-clock ceiling "
                "(SIGALRM fallback for the missing pytest-timeout plugin)"
            )

        if seconds > 0:
            previous = signal.signal(signal.SIGALRM, _expired)
            signal.setitimer(signal.ITIMER_REAL, seconds)
            try:
                yield
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        else:
            yield

elif not _HAVE_PYTEST_TIMEOUT:  # pragma: no cover - non-POSIX fallback

    def pytest_configure(config):
        config.addinivalue_line(
            "markers", "timeout(seconds): per-test wall-clock ceiling"
        )


@pytest.fixture
def fw_spec():
    return FloydWarshallGep()


@pytest.fixture
def ge_spec():
    return GaussianEliminationGep()


@pytest.fixture
def tc_spec():
    return TransitiveClosureGep()


def fw_table(n: int, seed: int = 0, density: float = 0.35) -> np.ndarray:
    """Random FW-APSP input table."""
    return random_digraph_weights(n, density, seed=seed)


def tc_table(n: int, seed: int = 0, density: float = 0.2) -> np.ndarray:
    """Random transitive-closure input table."""
    return weights_to_boolean(random_digraph_weights(n, density, seed=seed))


def ge_table(n: int, seed: int = 0) -> np.ndarray:
    """Random square GE table (diagonally dominant, no RHS column)."""
    from repro.workloads import diagonally_dominant

    return diagonally_dominant(n, seed=seed)


def assert_tables_equal(a: np.ndarray, b: np.ndarray, **kw) -> None:
    if a.dtype == np.bool_:
        np.testing.assert_array_equal(a, b)
    else:
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-9, **kw)


def assert_quiescent(sc) -> None:
    """The conservation invariant of a context at rest — swept by
    ``reclaim_solve_state()`` or stopped: nothing staged, cached, stored
    or spilled, every governor ledger and the tenant overlay at zero;
    a stopped context also has no worker process and nothing in
    ``/dev/shm``."""
    usage = sc.memory_manager.usage()
    assert usage["live_bytes"] == 0
    assert usage["execution_bytes"] == usage["storage_bytes"] == 0
    assert usage["by_owner"] == {"execution": {}, "storage": {}}
    assert usage["admitted_tasks"] == 0
    assert all(t["held_bytes"] == 0 for t in usage["tenants"].values())
    shuffles, blocks, storage = (
        sc._shuffle_manager, sc._block_manager, sc.shared_storage
    )
    assert (shuffles.num_shuffles, shuffles.live_bytes(), shuffles.num_spilled) == (0, 0, 0)
    assert (blocks.num_blocks, blocks.live_bytes, blocks.num_spilled) == (0, 0, 0)
    assert (len(storage), storage.live_bytes) == (0, 0)
    if sc.spill_store is not None:
        assert len(sc.spill_store) == 0
        assert glob.glob(f"{sc.spill_store.blocks_dir}/*") == []
    if sc._stopped and sc.supervisor is not None:
        assert sc.supervisor.worker_pids() == []
        assert glob.glob(f"/dev/shm/{sc.supervisor.prefix}*") == []
