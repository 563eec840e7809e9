"""Memory lives as long as its readers.

Three lifetimes are pinned down here.  A *stopped context holds
nothing*: ``SparkleContext.stop()`` empties every store, so a solve's
tiles die by reference count — no cyclic collection needed.  Inside a
solve *a shuffle lives as long as its readers*: once an RDD is sealed
(:meth:`RDD.seal`), the scheduler releases its parent shuffle and its
cached partitions when the last stage of a job that reads them
completes.  Safety is lineage: anything released is recomputable, and
the recovery tests drive a retry through released generations.  And *a
solve makes no reference cycle*: solve + ``stop()`` leaves nothing for
the cyclic collector, which is why ``GepSparkSolver.solve`` runs with it
paused (the last two sections).

No test here reads a clock.
"""

import dataclasses
import gc
import importlib.util
import os
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.core.api import run_gep
from repro.core.dpspark import GepSparkSolver, make_kernel
from repro.core.gep import (
    FloydWarshallGep,
    GaussianEliminationGep,
    TransitiveClosureGep,
)
from repro.sparkle import FaultPlan, FaultSpec, SparkleContext

from .conftest import assert_quiescent, fw_table, ge_table, shm_entries, tc_table

pytestmark = pytest.mark.memory

FW = FloydWarshallGep()
BACKENDS = ["threads", "processes"]


def oracle(spec, table, r):
    """The blocked single-node executor: the bit-identity reference."""
    return run_gep(spec, table, engine="local", r=r)[0]


def solver_for(sc, spec=FW, *, r, strategy, **kw):
    return GepSparkSolver(
        spec, sc, r=r, kernel=make_kernel(spec, "iterative"), strategy=strategy, **kw
    )


def arrays_in(value):
    """Every ndarray reachable through the containers a record uses."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from arrays_in(v)
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from arrays_in(v)


# ----------------------------------------------------------------------
# (i) teardown: a stopped context holds nothing — by refcount alone
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("strategy", ["im", "cb", "bcast"])
def test_stop_frees_every_staged_tile_without_the_cyclic_gc(strategy, backend):
    table = fw_table(24, seed=5)
    tiles: list[weakref.ref] = []
    shm_before = shm_entries()
    gc.collect()
    gc.disable()
    try:
        sc = SparkleContext(2, 1, backend=backend)
        staged, stored = sc._shuffle_manager.write, sc.shared_storage.put

        def spy_write(shuffle_id, map_partition, buckets, sizes):
            tiles.extend(weakref.ref(a) for a in arrays_in(buckets))
            return staged(shuffle_id, map_partition, buckets, sizes)

        def spy_put(key, value):
            tiles.extend(weakref.ref(a) for a in arrays_in(value))
            return stored(key, value)

        sc._shuffle_manager.write = spy_write
        sc.shared_storage.put = spy_put
        out, report = solver_for(sc, r=4, strategy=strategy).solve(table)
        pids = sc.supervisor.worker_pids() if sc.supervisor is not None else []
        assert tiles and any(ref() is not None for ref in tiles)
        sc.stop()
        # out and report are still held; the cycle collector never ran
        assert [ref() for ref in tiles if ref() is not None] == []
    finally:
        gc.enable()
    assert_quiescent(sc, shm_before)
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    sc.stop()  # idempotent
    assert_quiescent(sc, shm_before)
    assert np.array_equal(out, oracle(FW, table, 4))
    assert report.summary()["stages"] == sc.metrics.total_stages > 0
    assert report.memory["execution_peak_bytes"] > 0
    with pytest.raises(RuntimeError):
        sc.parallelize([1])


def test_stop_empties_a_budgeted_context_and_its_spill_dir():
    with SparkleContext(2, 1, memory_budget_bytes=2048) as sc:
        solver_for(sc, r=4, strategy="im").solve(fw_table(16, seed=3))
        assert sc.metrics.shuffle_blocks_spilled > 0
        spill_dir = sc.spill_store.root
    assert_quiescent(sc)
    assert not os.path.exists(spill_dir)


# ----------------------------------------------------------------------
# (ii) residency: the governor's high-water mark, no wall clock
# ----------------------------------------------------------------------
def test_im_holds_about_one_iteration_of_shuffle_not_the_whole_solve():
    r = 8
    table = fw_table(64, seed=2)
    with SparkleContext(2, 1) as sc:
        out, report = solver_for(sc, r=r, strategy="im").solve(table)
        memory, shuffle_bytes = report.memory, report.summary()["shuffle_bytes"]
        # r iterations staged shuffle_bytes in all; what was ever live
        # at once is a couple of iterations' worth (measured: 1.07 / r)
        assert 0 < memory["execution_peak_bytes"] <= 2.5 / r * shuffle_bytes
        assert memory["storage_peak_bytes"] <= 1.0 / r * shuffle_bytes
        assert sc.memory_manager.usage()["execution_peak_bytes"] == (
            memory["execution_peak_bytes"]
        )
        # at the final collect: the last generation, nothing else
        assert sc._shuffle_manager.num_shuffles == 1
        assert sc._block_manager.num_blocks == 0
        assert memory["shuffles_released"] == report.summary()["stages"] - 2
        assert memory["cached_rdds_retired"] == 2 * r
    assert np.array_equal(out, oracle(FW, table, r))


@pytest.mark.parametrize("strategy", ["cb", "bcast"])
def test_collect_strategies_hold_two_generations(strategy):
    r = 8
    table = fw_table(64, seed=2)
    with SparkleContext(2, 1) as sc:
        out, report = solver_for(sc, r=r, strategy=strategy).solve(table)
        # r + 1 generations were shuffled (the input and one per
        # iteration); the one being read and the one being written are
        # live together (measured: 2.06 generations)
        generation = report.summary()["shuffle_bytes"] / (r + 1)
        assert generation < report.memory["execution_peak_bytes"] <= 2.5 * generation
        assert sc._shuffle_manager.num_shuffles == 1
        assert sc._block_manager.num_blocks == 0
        assert report.memory["shuffles_released"] == r
        assert report.memory["cached_rdds_retired"] == 2 * r
    assert np.array_equal(out, oracle(FW, table, r))


# ----------------------------------------------------------------------
# (iii) semantics of seal()
# ----------------------------------------------------------------------
def two_shuffles(sc):
    a = sc.parallelize([(i % 4, i) for i in range(16)], 4).reduceByKey(
        lambda x, y: x + y, 4
    )
    b = a.map(lambda kv: (kv[0] % 2, kv[1])).reduceByKey(lambda x, y: x + y, 2)
    return a, b


def test_seal_marks_strictly_upstream_and_stops_at_sealed_nodes():
    with SparkleContext(2, 1) as sc:
        a, b = two_shuffles(sc)
        assert b.seal() is b
        assert a.sealed and not b.sealed
        node = a
        while node.deps:  # every ancestor, down to the source
            node = node.deps[0].rdd
            assert node.sealed
        # a second generation: only the new nodes are walked
        c = b.mapValues(lambda v: v + 1)
        a.sealed = False  # behind a sealed node: must not be reached
        b.sealed = True
        c.seal()
        assert not a.sealed
        assert c.seal(inclusive=True).sealed


def test_sealed_shuffle_is_released_with_its_last_reader_and_recomputable():
    with SparkleContext(2, 1) as sc:
        a, b = two_shuffles(sc)
        sm = sc._shuffle_manager
        a_shuffle = a.deps[0].shuffle_id
        b.seal()
        assert dict(b.collect()) == {0: 0 + 2 + 4 + 6 + 8 + 10 + 12 + 14, 1: 64}
        assert sc.metrics.jobs[-1].num_stages == 3
        assert not sm.has_outputs(a_shuffle, 4)  # a's shuffle: released
        assert sm.num_shuffles == 1  # b's own: unsealed, kept
        assert sc.metrics.shuffles_released == 1
        # b's shuffle is a leaf of the walk: the released ancestor is
        # neither visited nor needed
        assert b.count() == 2
        assert sc.metrics.jobs[-1].num_stages == 1
        # a job on the sealed RDD itself recomputes from lineage
        assert dict(a.collect()) == {0: 24, 1: 28, 2: 32, 3: 36}
        assert sc.metrics.jobs[-1].num_stages == 2
        assert sc.metrics.shuffles_released == 2  # and lets go again


def test_unsealed_chain_keeps_everything_across_jobs():
    with SparkleContext(2, 1) as sc:
        a, b = two_shuffles(sc)
        a.cache()
        b.collect()
        assert sc._shuffle_manager.num_shuffles == 2
        assert sc._block_manager.num_blocks == 4
        assert sc.metrics.shuffles_released == sc.metrics.cached_rdds_retired == 0
        a.collect()
        assert sc.metrics.jobs[-1].num_stages == 1


def test_sealed_cached_rdd_is_retired_by_its_last_reader_not_its_first():
    with SparkleContext(2, 1) as sc:
        base = sc.parallelize([(i % 2, i) for i in range(8)], 2).reduceByKey(
            lambda x, y: x + y, 2
        ).cache()
        left = base.mapValues(lambda v: -v).partitionBy(4)
        right = base.partitionBy(3)
        both = left.union(right)
        both.seal()
        # two map stages read base; the first must leave it for the second
        assert sorted(both.collect()) == [(0, -12), (0, 12), (1, -16), (1, 16)]
        assert sc.metrics.jobs[-1].num_stages == 4
        assert sc.metrics.cached_rdds_retired == 1
        assert sc._block_manager.num_blocks == 0
        assert not base._cached
        assert sc.metrics.shuffles_released == 3
        assert sc._shuffle_manager.num_shuffles == 0


# ----------------------------------------------------------------------
# lineage truncation frees what it truncates
# ----------------------------------------------------------------------
def test_checkpoint_releases_the_lineage_it_replaces(tmp_path):
    for ckdir in (None, str(tmp_path)):
        with SparkleContext(2, 1, checkpoint_dir=ckdir) as sc:
            a, b = two_shuffles(sc)
            a.cache()
            cp = b.checkpoint()
            assert a.sealed and b.sealed
            assert sc._shuffle_manager.num_shuffles == 0
            assert sc._block_manager.num_blocks == 0
            assert dict(cp.collect()) == {0: 56, 1: 64}
            assert sc.metrics.jobs[-1].num_stages == 1


@pytest.mark.parametrize("strategy", ["im", "cb"])
def test_journaled_solve_never_holds_more_than_the_live_generation(
    tmp_path, strategy
):
    table = fw_table(24, seed=9)
    staged = []
    with SparkleContext(2, 1, checkpoint_dir=str(tmp_path)) as sc:

        def after_commit(_k):
            staged.append(
                (sc._shuffle_manager.num_shuffles, sc._block_manager.num_blocks)
            )

        out, report = solver_for(
            sc, r=4, strategy=strategy, on_iteration=after_commit
        ).solve(table)
        assert staged == [(0, 0)] * 4
        assert sc._shuffle_manager.num_shuffles <= 1
        assert sc._block_manager.num_blocks == 0
    assert np.array_equal(out, oracle(FW, table, 4))


# ----------------------------------------------------------------------
# (iv) recovery through a released shuffle
# ----------------------------------------------------------------------
@pytest.mark.chaos
@pytest.mark.parametrize(
    "spec, table", [(FW, fw_table(24, seed=4)), (GaussianEliminationGep(), ge_table(24, seed=4))]
)
def test_cb_loses_an_executor_late_and_recomputes_through_released_generations(
    spec, table
):
    r = 6
    with SparkleContext(2, 1) as sc:
        sm = sc._shuffle_manager

        def lose_executor_0(k):
            if k == r - 2:
                dropped = sm.drop_executor_outputs(
                    lambda mp: sc._executors.executor_for(mp) == 0
                )
                # only the live generation was there to lose
                assert len({sid for sid, _mp in dropped}) == 1

        out, report = solver_for(
            sc, spec, r=r, strategy="cb", on_iteration=lose_executor_0
        ).solve(table)
        clean_stages = 3 * r - 1  # 1 + 3 per iteration, 2 for the last
        assert report.recovery["partitions_recomputed"] > 0
        # every generation before the lost one was re-run from lineage …
        assert report.summary()["stages"] >= clean_stages + (r - 2)
        # … and released again as its reader finished
        assert sm.num_shuffles == 1
    assert np.array_equal(out, oracle(spec, table, r))


@pytest.mark.chaos
@pytest.mark.parametrize("strategy, seed", [("im", 1), ("cb", 6)])
def test_seeded_executor_loss_recovers_by_recursing_through_released_shuffles(
    strategy, seed, monkeypatch
):
    """An executor dies late in the solve; the fetch that misses its map
    output recomputes it, and that recomputation's own fetch misses a
    *released* parent, and so on down the lineage.  If
    ``_recompute_missing`` stopped recursing the job could not finish."""
    table = fw_table(24, seed=4)
    # seeds picked so a loss lands late enough to reach released parents
    plan = FaultPlan(seed, [FaultSpec("lose", rate=0.04)])
    with SparkleContext(2, 1, fault_plan=plan) as sc:
        scheduler = sc._scheduler
        recompute = scheduler._recompute_missing
        depth = {"now": 0, "max": 0}
        rebuilt = set()

        def spy(exc):
            depth["now"] += 1
            depth["max"] = max(depth["max"], depth["now"])
            rebuilt.add(exc.shuffle_id)
            try:
                return recompute(exc)
            finally:
                depth["now"] -= 1

        monkeypatch.setattr(scheduler, "_recompute_missing", spy)
        out, report = solver_for(sc, r=4, strategy=strategy).solve(table)
        assert report.recovery["executor_loss_events"] > 0
        assert report.recovery["partitions_recomputed"] > 0
        assert depth["max"] >= 2 and len(rebuilt) >= 2
        # what recovery re-staged mid-stage has no reader left to count
        # it down: it waits for the end of the solve, and stop() takes it
        assert sc._shuffle_manager.num_shuffles >= 1
    assert_quiescent(sc)
    assert np.array_equal(out, oracle(FW, table, 4))


# ----------------------------------------------------------------------
# (v) a solve makes no reference cycle
# ----------------------------------------------------------------------
SPECS = {
    "fw": (FW, fw_table),
    "ge": (GaussianEliminationGep(), ge_table),
    "tc": (TransitiveClosureGep(), tc_table),
}


def cyclic_garbage(spec_name, strategy, backend="threads", plan=None):
    """Solve and stop with the collector off; then the type names of
    what a full collection finds, whether the context died by refcount,
    and the solve's task retries."""
    spec, table_for = SPECS[spec_name]
    table = table_for(24, seed=5)
    gc.collect()
    gc.disable()
    try:
        sc = SparkleContext(2, 1, backend=backend, fault_plan=plan)
        out, report = solver_for(sc, spec, r=4, strategy=strategy).solve(table)
        sc.stop()
        assert np.array_equal(out, oracle(spec, table, 4))
        retried = sc.metrics.tasks_retried
        context = weakref.ref(sc)
        del sc, out, report
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = sorted(type(o).__name__ for o in gc.garbage)
        return found, context() is None, retried
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("strategy", ["im", "cb", "bcast"])
@pytest.mark.parametrize("spec_name", sorted(SPECS))
def test_solve_and_stop_leave_no_cyclic_garbage(spec_name, strategy, backend):
    found, context_freed, _ = cyclic_garbage(spec_name, strategy, backend)
    assert found == []
    assert context_freed


@pytest.mark.chaos
@pytest.mark.parametrize(
    "kind, strategy",
    [("kill", "im"), ("lose", "cb"), ("storage", "cb"), ("overflow", "im")],
)
def test_a_recovered_solve_leaves_no_cyclic_garbage(kind, strategy):
    """Retries keep the failure they recovered from only until an
    attempt succeeds; executor loss recomputes through lineage."""
    plan = FaultPlan(3, [FaultSpec(kind, rate=0.2)])
    found, context_freed, retried = cyclic_garbage("fw", strategy, plan=plan)
    assert retried > 0 and plan.fired()[kind] > 0
    assert found == []
    assert context_freed


# ----------------------------------------------------------------------
# (vi) the collector is paused for a solve, and only for a solve
# ----------------------------------------------------------------------
def collections_inside(solver, run) -> int:
    """How many collections start inside ``solver._solve`` (the solve's
    body) while ``run()`` runs."""
    inside, starts = [], []
    body = solver._solve

    def spy(table):
        inside.append(1)
        try:
            return body(table)
        finally:
            inside.pop()

    def count(phase, _info):
        if phase == "start" and inside:
            starts.append(1)

    solver._solve = spy
    gc.callbacks.append(count)
    try:
        run()
    finally:
        gc.callbacks.remove(count)
        del solver._solve
    return len(starts)


def test_a_fine_solve_starts_no_collection():
    table = fw_table(48, seed=1)
    with SparkleContext(2, 1) as sc:
        solver = solver_for(sc, r=12, strategy="im")
        assert gc.isenabled()
        # the same body with the collector left on collects
        assert collections_inside(solver, lambda: solver._solve(table)) > 0
        assert collections_inside(solver, lambda: solver.solve(table)) == 0
    assert gc.isenabled()


class Stop(Exception):
    pass


def test_the_collector_is_restored_on_return_and_on_an_exception():
    table = fw_table(16, seed=1)
    with SparkleContext(2, 1) as sc:
        seen = []

        def fail(k):
            seen.append(gc.isenabled())
            raise Stop

        with pytest.raises(Stop):
            solver_for(sc, r=4, strategy="im", on_iteration=fail).solve(table)
        assert seen == [False] and gc.isenabled()
        solver_for(sc, r=4, strategy="cb").solve(table)
        assert gc.isenabled()


def test_a_caller_who_disabled_the_collector_keeps_it_disabled():
    table = fw_table(16, seed=1)
    with SparkleContext(2, 1) as sc:
        gc.disable()
        try:
            solver_for(sc, r=4, strategy="im").solve(table)
            with pytest.raises(ValueError):
                solver_for(sc, r=4, strategy="im").solve(table[:, :8])
            assert not gc.isenabled()
        finally:
            gc.enable()


def test_concurrent_and_nested_solves_compose():
    """The collector returns only when the last solve running ends."""
    table = fw_table(16, seed=1)
    inside, release = threading.Event(), threading.Event()
    seen = []

    def hold(k):
        if k == 0:
            seen.append(gc.isenabled())
            inside.set()
            release.wait()

    def nested(k):
        if k == 0:
            with SparkleContext(1, 1) as inner:
                solver_for(inner, r=2, strategy="im").solve(table)
            seen.append(gc.isenabled())

    with SparkleContext(1, 1) as held, SparkleContext(1, 1) as sc:
        first = threading.Thread(
            target=solver_for(held, r=4, strategy="im", on_iteration=hold).solve,
            args=(table,),
        )
        first.start()
        try:
            inside.wait()
            solver_for(sc, r=4, strategy="cb", on_iteration=nested).solve(table)
            assert not gc.isenabled()  # the first solve is still running
        finally:
            release.set()
            first.join()
    assert seen == [False, False]
    assert gc.isenabled()


@pytest.mark.supervision
def test_workers_run_with_the_collector_on_whatever_the_driver_does():
    """First-generation workers fork in the constructor — here while
    the driver's collector is off — and respawns use spawn; each runs
    with its own collector on."""
    shm_before = shm_entries()
    gc.disable()
    try:
        with SparkleContext(2, 1, backend="processes") as sc:
            plane = sc.offload
            assert [p.submit(gc.isenabled).result() for p in plane._pools] == [
                True,
                True,
            ]
            plane._respawn_slot(0, plane._generations[0])
            assert plane._respawn_method == "spawn"
            assert plane._pools[0].submit(gc.isenabled).result()
    finally:
        gc.enable()
    assert_quiescent(sc, shm_before)


def test_the_collector_ledger_meters_a_toy_round():
    """``benchmarks/gc_ledger.py`` (``make gc-ledger``) at toy size: every
    column per solve, and no collection inside an engine job."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "gc_ledger.py"
    loader = importlib.util.spec_from_file_location("gc_ledger", path)
    ledger = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(ledger)
    for name in ("fw_fine_im", "ge_fine_cb"):
        toy = dataclasses.replace(ledger.spec.WORKLOADS[name], n=24, r=4)
        row = ledger.measure(toy, solves=2)
        assert set(row) == set(ledger.COLUMNS)
        assert all(value >= 0 for value in row.values())
        assert row["in_jobs"] == 0
    assert gc.isenabled()
