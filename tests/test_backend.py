"""Multicore data plane: backend parity, shm hygiene, the batch envelope.

The tentpole contract under test (DESIGN.md §12): the process backend is
the thread backend plus kernel offload — bit-identical results,
identical scheduler shape (jobs/stages/tasks), identical shuffle /
collect / storage bytes, identical kernel work accounting — while the
tiles a kernel touches cross the process boundary pickled in the batch
envelope instead of by reference.  Plus the hygiene guarantees: a
context adds no entry to ``/dev/shm`` (its heartbeat board is anonymous
shared memory), and no worker process outlives it, even when chaos
faults kill tasks mid-kernel.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import run_gep
from repro.core.dpspark import GepSparkSolver, make_kernel
from repro.core.gep import (
    FloydWarshallGep,
    GaussianEliminationGep,
    TransitiveClosureGep,
)
from repro.kernels.base import update_tile, update_tiles
from repro.sparkle import (
    FaultPlan,
    FaultSpec,
    SparkleContext,
    SupervisionConfig,
    WorkerCrashed,
)
from repro.sparkle.backend import ALIAS_X, BACKENDS, ProcessBackend
from repro.sparkle.chaos import CURRENT_TASK
from repro.sparkle.executors import ExecutorPool

from .conftest import fw_table, ge_table, shm_entries, tc_table

SPECS = {
    "fw": (FloydWarshallGep, fw_table),
    "ge": (GaussianEliminationGep, ge_table),
    "tc": (TransitiveClosureGep, tc_table),
}


def _solve(backend, spec, table, *, strategy="im", r=3, fault_plan=None):
    """One solve on an owned context; returns (result, report, leftovers).

    ``leftovers`` is the set of ``/dev/shm`` entries that appeared
    between building the context and after it stopped — the leak probe.
    """
    shm_before = shm_entries()
    with SparkleContext(
        num_executors=3,
        cores_per_executor=2,
        backend=backend,
        fault_plan=fault_plan,
    ) as sc:
        solver = GepSparkSolver(
            spec,
            sc,
            r=r,
            kernel=make_kernel(spec, "iterative"),
            strategy=strategy,
        )
        out, report = solver.solve(table)
    return out, report, shm_entries() - shm_before


def _shape_claims(report):
    m = report.engine_metrics
    return (len(m.jobs), m.total_stages, m.total_tasks)


# ----------------------------------------------------------------------
# backend parity (the tentpole acceptance property)
# ----------------------------------------------------------------------
@given(
    name=st.sampled_from(sorted(SPECS)),
    strategy=st.sampled_from(["im", "cb", "bcast"]),
    n=st.integers(min_value=6, max_value=20),
    r=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=8, deadline=None)
def test_property_backends_bit_identical(name, strategy, n, r, seed):
    """Random workload x strategy: threads and processes agree bit-for-bit,
    run the same scheduler shape, and count the same kernel work."""
    spec_cls, make = SPECS[name]
    spec = spec_cls()
    table = make(n, seed=seed)
    results = {}
    for backend in BACKENDS:
        out, report, leftovers = _solve(
            backend, spec, table.copy(), strategy=strategy, r=r
        )
        assert leftovers == set(), f"leaked /dev/shm entries on {backend}: {leftovers}"
        results[backend] = (out, report)
    t_out, t_rep = results["threads"]
    p_out, p_rep = results["processes"]
    assert np.array_equal(t_out, p_out), "backend outputs diverge"
    assert _shape_claims(t_rep) == _shape_claims(p_rep)
    assert t_rep.engine_metrics.backend == "threads"
    assert p_rep.engine_metrics.backend == "processes"


@pytest.mark.batching
@given(
    name=st.sampled_from(sorted(SPECS)),
    strategy=st.sampled_from(["im", "cb", "bcast"]),
    n=st.integers(min_value=6, max_value=16),
    r=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=30),
    chaos_seed=st.one_of(st.none(), st.integers(min_value=0, max_value=20)),
)
@settings(max_examples=8, deadline=None)
def test_property_dispatch_modes_bit_identical(
    name, strategy, n, r, seed, chaos_seed
):
    """The offload protocol's differential property: in-process and
    offloaded tile updates produce the same bits AND replay the same
    scheduler shape (jobs/stages/tasks) — offload batches IPC
    round-trips, never the RDD graph — with or without seeded chaos,
    leaking nothing (DESIGN.md §12)."""
    spec_cls, make = SPECS[name]
    spec = spec_cls()
    table = make(n, seed=seed)
    results = {}
    for backend in BACKENDS:
        plan = (
            None
            if chaos_seed is None
            else FaultPlan(
                seed=chaos_seed,
                specs=[FaultSpec("kill", 0.1), FaultSpec("storage", 0.05)],
            )
        )
        out, report, leftovers = _solve(
            backend, spec, table.copy(), strategy=strategy, r=r, fault_plan=plan
        )
        assert leftovers == set(), f"leaked /dev/shm entries on {backend}: {leftovers}"
        results[backend] = (out, report)
    ref_out, ref_rep = results["threads"]
    out, rep = results["processes"]
    assert np.array_equal(ref_out, out), "processes output diverges"
    assert _shape_claims(ref_rep) == _shape_claims(rep), (
        "processes scheduler shape diverges"
    )


@pytest.mark.batching
def test_batch_dispatch_cuts_round_trips():
    """The whole point, as exact counts: the driver crosses the IPC
    boundary once per kernel-running task — not once per tile — while
    every tile update is still accounted (kernel_offloads).  And the
    placement rule: a task on partition ``p`` sends its batch to worker
    ``p % num_workers``."""
    spec = FloydWarshallGep()
    nt = 12
    routed = []
    with SparkleContext(2, 1, backend="processes") as sc:
        backend = sc.offload
        slot_pool = backend._slot_pool

        def recording_slot_pool(slot):
            routed.append((CURRENT_TASK.get().partition, slot))
            return slot_pool(slot)

        backend._slot_pool = recording_slot_pool
        solver = GepSparkSolver(
            spec, sc, r=nt, kernel=make_kernel(spec, "iterative"),
            strategy="im", collect_stats=True,
        )
        _, report = solver.solve(fw_table(96, seed=1))
    # Kernel-running tasks per iteration: the A task, plus one task per
    # partition holding a B/C tile, plus one per partition holding a D tile.
    home = solver.partitioner.partition
    kernel_tasks = 0
    for k in range(nt):
        rest = [t for t in range(nt) if t != k]
        bc = {home((k, t)) for t in rest} | {home((t, k)) for t in rest}
        d = {home((i, j)) for i in rest for j in rest}
        kernel_tasks += 1 + len(bc) + len(d)
    m = report.engine_metrics
    assert m.tasks_retried == 0
    assert m.dispatch_round_trips == kernel_tasks
    assert m.kernel_offloads == report.kernel_stats.total_invocations == nt**3
    assert m.dispatch_round_trips < m.kernel_offloads
    assert len(routed) == kernel_tasks
    assert all(slot == partition % 2 for partition, slot in routed)
    assert {slot for _, slot in routed} == {0, 1}, "both workers take batches"


@pytest.mark.batching
def test_dispatch_validation(capsys):
    """The removed offload, pipelining, affinity, fault-hook, staging,
    shared-memory and capacity options fail loudly."""
    from repro.__main__ import main as cli_main
    from repro.sparkle.broadcast import Broadcast
    from repro.sparkle.memory import MemoryManager
    from repro.sparkle.shuffle import ShuffleManager
    from repro.sparkle.storage import BlockManager, SharedStorage

    for command in (["solve", "apsp"], ["serve", "--socket", "unused.sock"]):
        for flag in (
            ["--dispatch", "batch"],
            ["--gang-stages"],
            ["--pipeline-depth", "2"],
            ["--affinity", "off"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                cli_main(command + flag)
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
    with pytest.raises(TypeError, match="dispatch"):
        SparkleContext(2, 1, backend="processes", dispatch="batch")
    with pytest.raises(TypeError, match="gang_stages"):
        SparkleContext(2, 1, backend="processes", gang_stages=True)
    with pytest.raises(TypeError, match="pipeline_depth"):
        SparkleContext(2, 1, pipeline_depth=2)
    with pytest.raises(TypeError, match="affinity"):
        SparkleContext(2, 1, affinity=False)
    with pytest.raises(TypeError, match="failure_injector"):
        SparkleContext(2, 1, failure_injector=lambda stage, part, attempt: False)
    with pytest.raises(TypeError, match="serialize"):
        ShuffleManager(serialize=True)
    with pytest.raises(TypeError, match="arena"):
        BlockManager(arena=object())
    # the shared-memory tile transport: arena, its options, its module
    with pytest.raises(TypeError, match="arena"):
        SharedStorage(None, arena=object())
    with pytest.raises(TypeError, match="arena"):
        Broadcast(0, None, 1, None, arena=object())
    with pytest.raises(ImportError):
        from repro.sparkle import SegmentArena  # noqa: F401
    with pytest.raises(ImportError):
        import repro.sparkle.serialize  # noqa: F401
    # the capacity limits of the ungoverned engine, and their error
    for knob in (
        "shuffle_capacity_bytes", "storage_capacity_bytes", "cache_capacity_bytes"
    ):
        with pytest.raises(TypeError, match=knob):
            SparkleContext(2, 1, **{knob: 1 << 20})
    # the scheduler's retry policy: class attributes, not options
    for knob in (
        "max_task_retries", "speculation", "blacklist_threshold",
        "backoff_base", "backoff_cap", "backoff_jitter",
    ):
        with pytest.raises(TypeError, match=knob):
            SparkleContext(2, 1, **{knob: 1})
    # options with one value in use: class attributes of the reader
    from repro.service import ServiceConfig

    for knob in (
        "retry_backoff_base", "retry_backoff_cap", "breaker_threshold",
        "breaker_cooldown", "shed_retry_after", "drain_retry_after",
        "default_tenant_weight", "tenant_charge_factor",
    ):
        with pytest.raises(TypeError, match=knob):
            ServiceConfig(**{knob: 1})
    for knob in ("respawn_backoff_base", "respawn_backoff_cap", "respawn_backoff_jitter"):
        with pytest.raises(TypeError, match=knob):
            SupervisionConfig(**{knob: 0.0})
    for knob in ("pressured_at", "critical_at"):
        with pytest.raises(TypeError, match=knob):
            MemoryManager(None, **{knob: 0.5})
    mm = MemoryManager(None)
    for build in (
        lambda: ShuffleManager(mm, capacity_bytes=1),
        lambda: BlockManager(mm, capacity_bytes=1),
        lambda: SharedStorage(None, capacity_bytes=1),
    ):
        with pytest.raises(TypeError, match="capacity_bytes"):
            build()
    with pytest.raises(ImportError):
        from repro.sparkle import StorageCapacityError  # noqa: F401
    spec = FloydWarshallGep()
    t = fw_table(8, seed=0)
    with pytest.raises(TypeError, match="dispatch"):
        run_gep(spec, t, engine="spark", dispatch="batch")
    with pytest.raises(TypeError, match="pipeline_depth"):
        run_gep(spec, t, engine="spark", pipeline_depth=2)
    with pytest.raises(TypeError, match="backend"):
        run_gep(spec, t, engine="spark", backend="processes")


@pytest.mark.parametrize("strategy", ["im", "cb", "bcast"])
def test_kernel_stats_identical_across_backends(strategy):
    """Offloaded kernels report the same work totals as in-process ones."""
    spec = FloydWarshallGep()
    table = fw_table(18, seed=7)
    stats = {}
    for backend in BACKENDS:
        with SparkleContext(2, 2, backend=backend) as sc:
            solver = GepSparkSolver(
                spec,
                sc,
                r=3,
                kernel=make_kernel(spec, "iterative"),
                strategy=strategy,
                collect_stats=True,
            )
            out, report = solver.solve(table.copy())
            stats[backend] = (out, report.kernel_stats, sc.metrics.summary())
    t_out, t_stats, t_summary = stats["threads"]
    p_out, p_stats, p_summary = stats["processes"]
    assert np.array_equal(t_out, p_out)
    assert t_stats.updates == p_stats.updates
    assert dict(t_stats.invocations) == dict(p_stats.invocations)
    # ... and the engine meters the same plan and the same bytes: tasks,
    # shuffle and cache never leave the driver's threads on either backend
    for counter in (
        "jobs",
        "stages",
        "tasks",
        "shuffle_bytes",
        "remote_shuffle_bytes",
        "collect_bytes",
        "storage_bytes_read",
    ):
        assert t_summary[counter] == p_summary[counter], counter


def test_process_backend_actually_offloads():
    """The metered offload path runs (not silently falling back)."""
    spec = FloydWarshallGep()
    _, report, _ = _solve("processes", spec, fw_table(24, seed=1), r=3)
    m = report.engine_metrics
    assert m.kernel_offloads > 0 and m.dispatch_round_trips > 0


class _LockedKernel:
    """A duck-typed kernel that really cannot be pickled: it holds a
    lock."""

    def __init__(self, inner):
        self.inner = inner
        self.lock = threading.Lock()

    def run(self, *args, **kwargs):
        with self.lock:
            self.inner.run(*args, **kwargs)

    def describe(self):
        return {"kind": "locked", **self.inner.describe()}


def test_unpicklable_kernel_falls_back_to_threads_path():
    """A kernel that cannot cross a process boundary (one holding a
    lock) degrades to the in-process path silently — correct results,
    zero offloads."""
    spec = FloydWarshallGep()
    table = fw_table(16, seed=3)
    with pytest.raises(TypeError):
        pickle.dumps(_LockedKernel(make_kernel(spec, "iterative")))
    with SparkleContext(2, 2, backend="processes") as sc:
        solver = GepSparkSolver(
            spec,
            sc,
            r=4,
            kernel=_LockedKernel(make_kernel(spec, "iterative")),
            strategy="im",
        )
        out, report = solver.solve(table.copy())
    expect, _ = run_gep(spec, table, engine="local", r=4)
    assert np.array_equal(out, expect)
    assert report.engine_metrics.kernel_offloads == 0


def test_run_gep_backend_validation():
    """``run_gep`` configures no context: the backend (and every other
    context option) is chosen on the ``SparkleContext`` passed as ``sc``."""
    from repro.core import floyd_warshall

    spec = FloydWarshallGep()
    t = fw_table(8, seed=0)
    removed = {
        "checkpoint_dir": "ck",
        "memory_budget_bytes": 1 << 20,
        "spill_dir": "spill",
        "backend": "processes",
        "heartbeat_interval": 0.1,
        "task_deadline": 1.0,
        "max_task_failures": 2,
        "affinity": False,
    }
    for name, value in removed.items():
        for engine in ("local", "spark"):
            with pytest.raises(TypeError, match=name):
                run_gep(spec, t, engine=engine, **{name: value})
        with pytest.raises(TypeError, match=name):
            floyd_warshall(t, engine="spark", **{name: value})
    with pytest.raises(ValueError, match="unknown backend"):
        SparkleContext(1, 1, backend="fibers")


# ----------------------------------------------------------------------
# hygiene: nothing in /dev/shm, and no worker outlives the context
# ----------------------------------------------------------------------
def test_no_shm_leak_after_clean_solve():
    """Mid-solve — read after every offloaded batch, other tasks' batches
    in flight — the context has added no ``/dev/shm`` entry (the board
    has no name), and after ``stop()`` it has added none either."""
    spec = GaussianEliminationGep()
    shm_before = shm_entries()
    seen = set()
    with SparkleContext(2, 2, backend="processes") as sc:
        backend = sc.offload
        run_kernel_batch = backend.run_kernel_batch

        def recording_batch(*args, **kwargs):
            out = run_kernel_batch(*args, **kwargs)
            seen.update(shm_entries() - shm_before)
            return out

        backend.run_kernel_batch = recording_batch
        solver = GepSparkSolver(
            spec, sc, r=3, kernel=make_kernel(spec, "iterative"), strategy="cb"
        )
        solver.solve(ge_table(18, seed=5))
        assert sc.metrics.kernel_offloads > 0
        assert sc.supervisor.worker_pids()  # the board was live throughout
    assert seen == set()
    assert shm_entries() - shm_before == set()


def test_no_shm_leak_under_chaos_kill():
    """A chaos-killed task dies between offloads; nothing of it is left
    in ``/dev/shm`` and the retry still produces the fault-free answer."""
    spec = FloydWarshallGep()
    table = fw_table(20, seed=11)
    clean, _, _ = _solve("threads", spec, table.copy(), r=3)
    plan = FaultPlan(
        seed=11,
        specs=[FaultSpec("kill", 0.15), FaultSpec("storage", 0.05)],
    )
    out, report, leftovers = _solve(
        "processes", spec, table.copy(), r=3, fault_plan=plan
    )
    m = report.engine_metrics
    assert m.tasks_retried > 0, "chaos plan should have fired"
    assert np.array_equal(out, clean)
    assert leftovers == set()


def test_no_worker_processes_after_stop():
    before = {p.pid for p in multiprocessing.active_children()}
    with SparkleContext(2, 1, backend="processes") as sc:
        sc.parallelize(range(8), 4).map(lambda x: x * x).collect()
        assert isinstance(sc.offload, ProcessBackend)
    after = {p.pid for p in multiprocessing.active_children()}
    assert after <= before, f"worker processes leaked: {after - before}"


def test_threads_context_has_no_worker_plane():
    with SparkleContext(2, 2) as sc:
        assert sc.offload is None and sc.supervisor is None
    with pytest.raises(ValueError, match="unknown backend"):
        SparkleContext(2, 2, backend="green-threads")
    with pytest.raises(ValueError, match="unknown backend"):
        ExecutorPool(2, 2, backend="green-threads")


# ----------------------------------------------------------------------
# the batch envelope: what crosses the process boundary, and back
# ----------------------------------------------------------------------
_FW = FloydWarshallGep()
_FW_BLOB = pickle.dumps(make_kernel(_FW, "iterative"))


def _thread_path(calls):
    """The thread path's answer for ``calls``: a private copy each,
    aliases resolved against it, the kernel run in place."""
    kernel = make_kernel(_FW, "iterative")
    outs = []
    for case, tile, u, v, w, gi0, gj0, gk0, n in calls:
        x = tile.copy()
        u, v, w = (x if op is ALIAS_X else op for op in (u, v, w))
        kernel.run(case, x, u, v, w, gi0, gj0, gk0, n)
        outs.append(x)
    return outs


def _d_calls(count, dtype=np.float64, seed=0):
    """``count`` independent case-D calls on 6x6 tiles of a 24x24 table."""
    rng = np.random.default_rng(seed)

    def tile():
        return rng.uniform(1.0, 9.0, (6, 6)).astype(dtype)

    return [("D", tile(), tile(), tile(), None, 6 * i, 12, 18, 24) for i in range(count)]


def _process_backend(**kwargs):
    backend = ProcessBackend(
        num_workers=1,
        supervision=SupervisionConfig(heartbeat_interval=0.0),
        **kwargs,
    )
    backend.supervisor.respawn_backoff_base = 0.0
    return backend


def test_batch_shared_object_is_one_calls_tile_and_anothers_operand():
    """The same ndarray object is call 0's X and call 1's ``u``: the pool
    ships it once, so the worker must update a *private copy* of call
    0's tile — call 1 reads the values the driver sent.  Fails if the
    worker updates ``pool[xi]`` in place."""
    (_, shared, u0, v0, _, *at0), (_, x1, _, v1, _, *at1) = _d_calls(2)
    shared += 100.0  # call 0 pulls it far down ...
    x1 += 50.0  # ... far enough to pull x1 down too, if call 1 saw the update
    calls = [("D", shared, u0, v0, None, *at0), ("D", x1, shared, v1, None, *at1)]
    before = shared.tobytes()
    expect = _thread_path(calls)
    (leaked,) = _thread_path([("D", x1, expect[0], v1, None, *at1)])
    assert not np.array_equal(leaked, expect[1]), "inputs must tell the two apart"
    with _process_backend() as backend:
        batch = backend.run_kernel_batch(_FW_BLOB, calls)
        singles = [backend.run_kernel(_FW_BLOB, *call) for call in calls]
    for (out, _), (single, _), want in zip(batch, singles, expect):
        assert out.tobytes() == single.tobytes() == want.tobytes()
    assert shared.tobytes() == before


def test_batch_results_round_trip_and_own_their_memory():
    """A transposed (non-contiguous) tile and a float32 tile come back
    bit-identical to the thread path; every result is a writeable array
    that owns its memory, whatever pickle handed the driver."""
    (case, x, u, v, w, *at), = _d_calls(1, seed=1)
    calls = [
        (case, x.T, u, v, w, *at),
        *_d_calls(1, dtype=np.float32, seed=2),
        ("A", x, ALIAS_X, ALIAS_X, ALIAS_X, 6, 6, 6, 24),
        *_d_calls(1, seed=3),
    ]
    assert not calls[0][1].flags.c_contiguous
    with _process_backend() as backend:
        outs = backend.run_kernel_batch(_FW_BLOB, calls)
    for (out, _), want, call in zip(outs, _thread_path(calls), calls):
        assert out.dtype == call[1].dtype and out.tobytes() == want.tobytes()
        assert out.base is None and out.flags.writeable


class _KillOnce:
    """Fault plan stand-in: ships ``worker_kill`` with the call at
    ``coordinate``, the first time it is offloaded."""

    seed = 0

    def __init__(self, coordinate):
        self.coordinate = coordinate
        self.fired = False

    def worker_fault(self, case, gi0, gj0, gk0):
        if self.fired or (gi0, gj0, gk0) != self.coordinate:
            return None
        self.fired = True
        return "worker_kill"


@pytest.mark.timeout(120)
def test_worker_killed_mid_batch_leaves_inputs_pristine():
    """``worker_kill`` on call 2 of a batch of 4: the dead worker took
    only its own copies with it — no input changed, and the retry
    returns the fault-free bytes."""
    calls = _d_calls(4, seed=4)
    inputs = [arr for call in calls for arr in call[1:4]]
    before = [arr.tobytes() for arr in inputs]
    expect = _thread_path(calls)
    with _process_backend(fault_plan=_KillOnce(tuple(calls[2][5:8]))) as backend:
        with pytest.raises(WorkerCrashed):
            backend.run_kernel_batch(_FW_BLOB, calls)
        assert [arr.tobytes() for arr in inputs] == before
        outs = backend.run_kernel_batch(_FW_BLOB, calls)
    assert [out.tobytes() for out, _ in outs] == [x.tobytes() for x in expect]
    assert [arr.tobytes() for arr in inputs] == before


# ----------------------------------------------------------------------
# the call list is the batch: one updater, pickle's memo the operand pool
# ----------------------------------------------------------------------
def test_alias_x_pickles_to_the_modules_own_sentinel():
    from repro.kernels import base

    assert ALIAS_X is base.ALIAS_X
    first, (second,) = pickle.loads(pickle.dumps([ALIAS_X, (ALIAS_X,)]))
    assert first is base.ALIAS_X and second is base.ALIAS_X


def _aliased_calls(alias, seed=0):
    """Cases A, B and C on 6x6 tiles of a 24x24 table, pivot step 1;
    ``alias(tile)`` is what stands for "this operand is the tile"."""
    rng = np.random.default_rng(seed)

    def tile():
        return rng.uniform(1.0, 9.0, (6, 6)) + 20.0 * np.eye(6)

    a, b, c, pivot = tile(), tile(), tile(), tile()
    return [
        ("A", a, alias(a), alias(a), alias(a), 6, 6, 6, 24),
        ("B", b, pivot, alias(b), pivot, 6, 12, 6, 24),
        ("C", c, alias(c), pivot, pivot, 12, 6, 6, 24),
    ]


@pytest.mark.parametrize("spec_cls", [FloydWarshallGep, GaussianEliminationGep])
def test_literal_and_alias_x_operands_agree_everywhere(spec_cls):
    """One aliasing rule: an operand that *is* the call's tile means the
    same as ``ALIAS_X`` — it reads the private copy being updated — from
    ``update_tile``, from ``update_tiles`` and across the process
    boundary, and no input array changes."""
    kernel = make_kernel(spec_cls(), "iterative")
    symbolic = _aliased_calls(lambda tile: ALIAS_X)
    literal = _aliased_calls(lambda tile: tile)
    arrays = [op for call in literal for op in call[1:5]]
    before = [arr.tobytes() for arr in arrays]
    expect = [update_tile(kernel, call).tobytes() for call in symbolic]
    # the rule matters: case A reading the stale original is another answer
    stale = literal[0][1].copy()
    kernel.run("A", stale, *literal[0][2:])
    assert stale.tobytes() != expect[0]
    with _process_backend() as backend:
        blob = pickle.dumps(kernel)
        for calls in (symbolic, literal):
            answers = (
                [update_tile(kernel, call) for call in calls],
                update_tiles(kernel, calls),
                [out for out, _ in backend.run_kernel_batch(blob, calls)],
            )
            for outs in answers:
                assert [out.tobytes() for out in outs] == expect
    assert [arr.tobytes() for arr in arrays] == before


def test_call_list_pickles_each_distinct_array_once():
    """What ``OperandPool`` existed to guarantee is a property of the
    call list: 20 case-D calls sharing one pivot, four row and five
    column tiles (plus the pivot's own case-A call) cross the boundary
    in the distinct arrays' bytes plus envelope — and an *equal copy* of
    one shared operand costs a whole tile more."""
    from multiprocessing.reduction import ForkingPickler

    rng = np.random.default_rng(7)

    def tile():
        return rng.uniform(1.0, 9.0, (16, 16))

    pivot = tile()
    rows = [tile() for _ in range(4)]
    cols = [tile() for _ in range(5)]
    calls = [("A", pivot, ALIAS_X, ALIAS_X, ALIAS_X, 16, 16, 16, 96)]
    for i, u in enumerate(rows):
        for j, v in enumerate(cols):
            calls.append(("D", tile(), u, v, pivot, 32 + 16 * i, 32 + 16 * j, 16, 96))
    tokens, injects = list(range(1, 22)), [None] * 21
    distinct = {id(op): op for call in calls for op in call[1:5] if op is not ALIAS_X}
    assert len(distinct) == 30
    raw = sum(arr.nbytes for arr in distinct.values())
    size = len(ForkingPickler.dumps((calls, tokens, injects)))
    assert raw < size < raw + 4096
    case, x, u, v, w, *at = calls[-1]
    calls[-1] = (case, x, u, v, pivot.copy(), *at)
    grown = len(ForkingPickler.dumps((calls, tokens, injects)))
    assert pivot.nbytes <= grown - size < pivot.nbytes + 256


class _RunOnlyKernel:
    """The duck-typed minimum: ``run`` and nothing else."""

    def __init__(self, inner):
        self.inner = inner

    def run(self, *args, **kwargs):
        self.inner.run(*args, **kwargs)


def test_worker_runs_the_thread_paths_stacks_and_run_is_enough(monkeypatch):
    """A batch of six D calls reaches the worker's kernel as the thread
    path's batch — one C call and no ``kernel.run``, or without a
    compiler one ``kernel.run`` per tile — and a kernel with only
    ``run`` works through ``update_tiles`` and ``run_kernel_batch``
    alike, one run per call."""
    from repro.kernels import IterativeKernel, native
    from repro.sparkle.metrics import EngineMetrics

    calls = _d_calls(6, seed=5)
    expect = [x.tobytes() for x in _thread_path(calls)]
    inner = make_kernel(_FW, "iterative")
    thread_runs = []
    run = IterativeKernel.run
    with monkeypatch.context() as patch:
        patch.setattr(
            IterativeKernel, "run", lambda *a, **kw: thread_runs.append(1) or run(*a, **kw)
        )
        outs = update_tiles(inner, calls)
    assert [x.tobytes() for x in outs] == expect
    assert len(thread_runs) == (0 if native.status() == "native" else 6)
    assert [x.tobytes() for x in update_tiles(_RunOnlyKernel(inner), calls)] == expect
    metrics = EngineMetrics()
    with _process_backend(metrics=metrics) as backend:
        for kernel, runs in ((inner, len(thread_runs)), (_RunOnlyKernel(inner), 6)):
            before = metrics.worker_kernel_runs
            outs = backend.run_kernel_batch(pickle.dumps(kernel), calls)
            assert [out.tobytes() for out, _ in outs] == expect
            assert metrics.worker_kernel_runs - before == runs


@pytest.mark.batching
def test_worker_kernel_runs_match_the_thread_path(monkeypatch):
    """FW n=96 r=12 IM: the workers make exactly the ``kernel.run`` calls
    the thread path makes for the same solve — one per A tile (a task of
    one call) and none for the C batches, or without a compiler one per
    tile — while ``kernel_offloads`` still counts every tile update, and
    the outputs agree byte for byte."""
    from repro.kernels import IterativeKernel, native

    spec = FloydWarshallGep()
    table = fw_table(96, seed=1)
    runs = []
    run = IterativeKernel.run

    def counted(self, *args, **kwargs):
        runs.append(args[0])
        return run(self, *args, **kwargs)

    def solve(backend):
        with SparkleContext(2, 1, backend=backend) as sc:
            solver = GepSparkSolver(
                spec, sc, r=12, kernel=make_kernel(spec, "iterative"), strategy="im"
            )
            return solver.solve(table.copy())

    with monkeypatch.context() as patch:
        patch.setattr(IterativeKernel, "run", counted)
        threads_out, _ = solve("threads")
    out, report = solve("processes")
    m = report.engine_metrics
    assert out.tobytes() == threads_out.tobytes()
    assert m.kernel_offloads == 12**3
    assert m.worker_kernel_runs == len(runs)
    if native.status() == "native":
        assert len(runs) < 12**3 // 4, "the worker batches"
    else:
        assert len(runs) == 12**3, "one run per tile"


def test_workers_start_with_the_context():
    """The first-generation workers are forked in the constructor's
    thread: right after ``SparkleContext(backend="processes")``, with no
    solve run, every slot has a live worker on its heartbeat row."""
    with SparkleContext(3, 1, backend="processes") as sc:
        pids = sc.offload.supervisor.worker_pids()
        live = {p.pid for p in multiprocessing.active_children()}
        assert len(pids) == 3 and set(pids) <= live


@pytest.mark.parametrize("name", ["fw", "ge"])
def test_recursive_kernel_offloads_and_matches_threads(name):
    """The paper's kernel family crosses the process boundary (its
    ``OmpRuntime`` pickles without its pool and thread-local): a
    recursive solve on ``processes`` offloads every tile update and is
    bit-identical to ``threads``."""
    spec_cls, make_table = SPECS[name]
    spec = spec_cls()
    table = make_table(96, seed=6)
    outs = {}
    for backend in BACKENDS:
        with SparkleContext(2, 1, backend=backend) as sc:
            kernel = make_kernel(
                spec, "recursive", r_shared=2, base_size=8, omp_threads=2
            )
            solver = GepSparkSolver(spec, sc, r=4, kernel=kernel, strategy="im")
            outs[backend], report = solver.solve(table.copy())
        offloads = report.engine_metrics.kernel_offloads
        assert (offloads > 0) == (backend == "processes"), (backend, offloads)
    assert outs["processes"].tobytes() == outs["threads"].tobytes()


def test_single_valued_options_are_constants(tmp_path):
    """Options nobody passed a second value to are attributes of their
    reader; the removed names raise ``TypeError``."""
    from repro.core.tuning import candidate_blocks
    from repro.service import send_request
    from repro.sparkle import DurableBlockStore

    assert DurableBlockStore.max_write_attempts == 3
    assert SparkleContext.KEEP_JOB_TRACES == 64
    removed = [
        (lambda: DurableBlockStore(tmp_path, max_write_attempts=3), "max_write_attempts"),
        (lambda: ProcessBackend(num_workers=1, start_method="spawn"), "start_method"),
        (lambda: ProcessBackend(2, num_workers=1), "positional"),
        (lambda: ProcessBackend(num_workers=1, total_slots=2), "total_slots"),
        (lambda: candidate_blocks(4096, max_r=256), "max_r"),
        (lambda: candidate_blocks(4096, min_block=128), "min_block"),
        (lambda: send_request("s", {}, backoff_base=0.05), "backoff_base"),
        (lambda: send_request("s", {}, backoff_cap=2.0), "backoff_cap"),
    ]
    with SparkleContext(1, 1) as sc:
        removed.append(
            (lambda: sc.reclaim_solve_state(keep_job_traces=64), "keep_job_traces")
        )
        for build, name in removed:
            with pytest.raises(TypeError, match=name):
                build()


# ----------------------------------------------------------------------
# copy audit: nothing RDD-visible is ever mutated (either backend)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "backend",
    ["threads", "processes"],
)
@pytest.mark.parametrize("strategy", ["im", "cb", "bcast"])
def test_solve_never_mutates_input_or_engine_state(backend, strategy):
    """Aliasing regression for the copy audit: the input table is
    untouched and a second solve over the same context (hitting any
    cached partitions / shared storage / broadcast state the first left
    behind) reproduces the first bit-for-bit."""
    spec = FloydWarshallGep()
    table = fw_table(16, seed=9)
    pristine = table.copy()
    with SparkleContext(2, 2, backend=backend) as sc:
        solver = GepSparkSolver(
            spec, sc, r=4, kernel=make_kernel(spec, "iterative"), strategy=strategy
        )
        out1, _ = solver.solve(table)
        assert np.array_equal(table, pristine), "solver mutated its input"
        out2, _ = solver.solve(table)
    assert np.array_equal(table, pristine)
    assert np.array_equal(out1, out2), "engine state corrupted between solves"


@pytest.mark.parametrize(
    "backend",
    ["threads", "processes"],
)
def test_cached_partitions_survive_downstream_mutation_attempts(backend):
    """Zero-copy transport must not let a consumer reach cached arrays:
    a map stage that mutates its (copied) tiles leaves the cache intact."""
    rng = np.random.default_rng(4)
    blocks = [rng.random((4, 4)) for _ in range(6)]
    with SparkleContext(2, 2, backend=backend) as sc:
        cached = sc.parallelize(list(enumerate(blocks)), 3).cache()
        first = dict(cached.collect())

        def smash(kv):
            k, arr = kv
            out = np.array(arr)  # consumers copy before writing (contract)
            out[...] = -1.0
            return (k, out)

        assert all(np.all(v == -1.0) for _, v in cached.map(smash).collect())
        second = dict(cached.collect())
    for k in first:
        assert np.array_equal(first[k], blocks[k])
        assert np.array_equal(second[k], blocks[k])
