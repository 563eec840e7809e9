"""Tile-affinity scheduling: the driver's placement memory.

Two layers under test (DESIGN.md §14): the :class:`AffinityRegistry`
unit semantics (majority-vote batch routing / rebalance / reset, all
metered), and the solve-level claims — a steady
grid converges to a >= 90% hit rate, a quarantined worker's tiles spill
and re-home gracefully, and placements never leak across solves.
"""

from __future__ import annotations

import glob

import numpy as np
import pytest

from repro.core.dpspark import GepSparkSolver, make_kernel
from repro.core.gep import FloydWarshallGep
from repro.sparkle import FaultPlan, SparkleContext
from repro.sparkle.affinity import AffinityRegistry
from repro.sparkle.metrics import EngineMetrics
from repro.sparkle.serialize import shm_supported

from .conftest import fw_table

pytestmark = pytest.mark.batching

needs_shm = pytest.mark.skipif(
    not shm_supported(), reason="multiprocessing.shared_memory unavailable"
)


# ----------------------------------------------------------------------
# registry unit semantics
# ----------------------------------------------------------------------
class TestAffinityRegistry:
    def test_route_homes_then_sticks(self):
        m = EngineMetrics()
        reg = AffinityRegistry(4, metrics=m)
        assert reg.route_batch([(0, 8)], default=2) == 2  # first touch: miss
        assert reg.route_batch([(0, 8)], default=3) == 2  # sticks to its home
        assert reg.route_batch([(8, 0)], default=7) == 3  # defaults wrap mod W
        assert (m.affinity_hits, m.affinity_misses) == (1, 2)
        assert len(reg) == 2

    def test_route_batch_majority_vote_rehomes_all(self):
        m = EngineMetrics()
        reg = AffinityRegistry(4, metrics=m)
        reg.route_batch(["a", "b"], 1)
        reg.route_batch(["c"], 2)
        m2 = EngineMetrics()
        reg._metrics = m2
        chosen = reg.route_batch(["a", "b", "c", "d"], default=0)
        assert chosen == 1  # 2 votes for slot 1 beat 1 vote for slot 2
        assert (m2.affinity_hits, m2.affinity_misses) == (2, 2)
        # every key in the batch now lives on the winner
        assert reg.slots_of(["a", "b", "c", "d"]) == {1}

    def test_route_batch_tie_breaks_to_lowest_slot(self):
        reg = AffinityRegistry(4)
        reg.route_batch(["a"], 3)
        reg.route_batch(["b"], 1)
        assert reg.route_batch(["a", "b"], default=0) == 1
        # empty batch: the default wins, nothing is homed
        assert reg.route_batch([], default=9) == 1  # 9 % 4
        assert len(reg) == 2

    def test_invalidate_worker_spills_and_meters(self):
        m = EngineMetrics()
        reg = AffinityRegistry(4, metrics=m)
        for i in range(6):
            reg.route_batch([i], i % 2)  # slots 0 and 1, three tiles each
        assert reg.invalidate_worker(1) == 3
        assert m.affinity_rebalances == 3
        assert len(reg) == 3
        # spilled tiles re-home on their next offload instead of
        # chasing the dead slot
        assert reg.route_batch([1], default=3) == 3

    def test_reset_forgets_everything(self):
        reg = AffinityRegistry(2)
        reg.route_batch(["x", "y"], 1)
        reg.reset()
        assert len(reg) == 0
        assert reg.snapshot() == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            AffinityRegistry(0)


# ----------------------------------------------------------------------
# solve-level claims
# ----------------------------------------------------------------------
def _solve(sc, table, *, r):
    spec = FloydWarshallGep()
    solver = GepSparkSolver(
        spec, sc, r=r, kernel=make_kernel(spec, "iterative"), strategy="im"
    )
    return solver.solve(table.copy())


@needs_shm
def test_steady_grid_hit_rate_at_least_90_percent():
    """FW touches every tile each of the r outer iterations, so only the
    first iteration misses: hit rate converges to 1 - 1/r.  At r=16
    that is 0.9375 — comfortably over the 90% acceptance bar."""
    table = fw_table(48, seed=2)
    with SparkleContext(2, 2, backend="processes") as sc:
        out, _ = _solve(sc, table, r=16)
        summ = sc.metrics.dispatch_summary()
    baseline = fw_table(48, seed=2)
    with SparkleContext(2, 2) as sc:
        expect, _ = _solve(sc, baseline, r=16)
    assert np.array_equal(out, expect)
    assert summ["affinity_hit_rate"] is not None
    assert summ["affinity_hit_rate"] >= 0.90
    assert summ["affinity_rebalances"] == 0


@needs_shm
@pytest.mark.supervision
def test_quarantined_worker_spills_affinity_and_rebalances():
    """A SIGKILLed worker's tiles must not keep chasing the dead slot:
    the respawn protocol evicts them (metered) and the solve still
    lands bit-identical."""
    table = fw_table(24, seed=3)
    with SparkleContext(2, 2) as sc:
        baseline, _ = _solve(sc, table, r=4)
    plan = FaultPlan.from_string("seed=7,worker_kill=0.25")
    with SparkleContext(
        2,
        2,
        backend="processes",
        fault_plan=plan,
        heartbeat_interval=0.1,
    ) as sc:
        out, _ = _solve(sc, table, r=4)
        summ = sc.metrics.dispatch_summary()
        crashes = sc.metrics.worker_crashes
        prefix = sc._executors.backend.arena.prefix
    assert np.array_equal(out, baseline)
    assert crashes >= 1
    assert summ["affinity_rebalances"] >= 1
    assert glob.glob(f"/dev/shm/{prefix}*") == []


@needs_shm
def test_no_affinity_leak_across_solves():
    """The registry is scoped to one solve: a second solve on the same
    context starts from an empty placement table (different grid sizes
    would otherwise inherit stale homes)."""
    with SparkleContext(2, 2, backend="processes") as sc:
        reg = sc._executors.backend.affinity
        out1, _ = _solve(sc, fw_table(24, seed=4), r=4)
        assert len(reg) > 0, "first solve should have homed tiles"
        first = reg.snapshot()
        out2, _ = _solve(sc, fw_table(36, seed=5), r=6)
        second = reg.snapshot()
    # the r=6 grid's tile keys replaced the r=4 grid's wholesale
    assert set(second) != set(first)
    with SparkleContext(2, 2) as sc:
        expect1, _ = _solve(sc, fw_table(24, seed=4), r=4)
        expect2, _ = _solve(sc, fw_table(36, seed=5), r=6)
    assert np.array_equal(out1, expect1)
    assert np.array_equal(out2, expect2)


@needs_shm
def test_affinity_off_still_bit_identical():
    table = fw_table(24, seed=6)
    outs = {}
    for affinity in (True, False):
        with SparkleContext(
            2, 2, backend="processes", affinity=affinity
        ) as sc:
            outs[affinity], _ = _solve(sc, table, r=4)
            if not affinity:
                assert sc._executors.backend.affinity is None
                assert sc.metrics.dispatch_summary()["affinity_hit_rate"] is None
    assert np.array_equal(outs[True], outs[False])
