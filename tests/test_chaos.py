"""Chaos harness: seeded fault injection against the GEP drivers.

The invariant under test is the paper's §II fault-tolerance story made
executable: for any :class:`FaultPlan` below the abort threshold
(``max_attempt=1``, so every retry has a clean attempt), the engine must
recover through lineage and produce output *bit-identical* to the
fault-free run — for both the In-Memory and Collect-Broadcast
distribution strategies — while the recovery metrics account for every
injected fault.  Determinism is part of the contract: identical seeds
must yield identical traces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dpspark import GepSparkSolver, make_kernel
from repro.core.gep import FloydWarshallGep
from repro.sparkle import FaultPlan, FaultSpec, SparkleContext

from .conftest import fw_table

pytestmark = pytest.mark.chaos

SPEC = FloydWarshallGep()
TABLE16 = fw_table(16, seed=3)
SMOKE_SEEDS = (3, 17, 41, 97, 123)


def solve_fw(table, strategy, r, plan=None):
    with SparkleContext(3, 2, fault_plan=plan) as sc:
        kernel = make_kernel(SPEC, "iterative", r_shared=2, base_size=4)
        solver = GepSparkSolver(SPEC, sc, r=r, kernel=kernel, strategy=strategy)
        out, report = solver.solve(table)
        return out, report, sc.metrics


def smoke_mix(seed):
    """Everything-on mix, `lose` kept rare: each loss cascades into
    partial re-runs of every live shuffle it clipped."""
    return FaultPlan(seed, [
        FaultSpec("kill", 0.05),
        FaultSpec("lose", 0.01),
        FaultSpec("storage", 0.03),
        FaultSpec("overflow", 0.02),
    ])


@pytest.fixture(scope="module")
def clean16():
    """Fault-free engine outputs, the bit-identity baseline."""
    return {s: solve_fw(TABLE16, s, 4)[0] for s in ("im", "cb")}


# ----------------------------------------------------------------------
# property: recoverable plans cannot change the answer
# ----------------------------------------------------------------------
RATE = st.sampled_from([0.0, 0.05, 0.15, 0.35])


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kill=RATE,
    storage=RATE,
    overflow=RATE,
    strategy=st.sampled_from(["im", "cb"]),
)
def test_any_recoverable_plan_is_bit_identical(
    clean16, seed, kill, storage, overflow, strategy
):
    """Seeded faults at max_attempt=1 (guaranteed-recoverable by
    construction) never perturb the FW result, via IM or CB."""
    plan = FaultPlan(seed, [
        FaultSpec("kill", kill),
        FaultSpec("storage", storage),
        FaultSpec("overflow", overflow),
    ])
    out, _report, metrics = solve_fw(TABLE16, strategy, 4, plan)
    np.testing.assert_array_equal(out, clean16[strategy])
    # every injected task fault shows up in the recovery accounting
    fired = plan.fired()
    assert metrics.tasks_retried >= fired["kill"]
    assert metrics.transient_io_failures == fired["storage"] + fired["overflow"]


# ----------------------------------------------------------------------
# smoke matrix: 5 fixed seeds x both strategies, full fault mix
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", ["im", "cb"])
@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_smoke_matrix(clean16, seed, strategy):
    plan = smoke_mix(seed)
    out, report, metrics = solve_fw(TABLE16, strategy, 4, plan)
    np.testing.assert_array_equal(out, clean16[strategy])
    assert sum(plan.fired().values()) > 0  # the mix is hot at these sizes
    assert metrics.tasks_retried > 0
    # the solver surfaces the chaos provenance on its report
    assert report.recovery == metrics.summary("recovery")
    assert report.extras["chaos"] == plan.describe()
    assert report.extras["faults_injected"] == plan.fired()
    assert report.summary()["extras"]["faults_injected"] == plan.fired()


# ----------------------------------------------------------------------
# acceptance: 8x8 tile grid, executor loss, trace equality
# ----------------------------------------------------------------------
def acceptance_plan():
    # seed 5 injects executor losses on this workload (asserted below)
    # yet recovers in well under a second.
    return FaultPlan(5, [
        FaultSpec("kill", 0.02),
        FaultSpec("lose", 0.004),
        FaultSpec("overflow", 0.01),
    ])


def trace_signature(metrics):
    """Everything deterministic about a run's trace (no wall-clock)."""
    return [
        (
            job.action,
            [
                (
                    s.stage_id,
                    s.kind,
                    [
                        (t.partition, t.executor, t.attempts)
                        for t in s.tasks
                    ],
                )
                for s in job.stages
            ],
        )
        for job in metrics.jobs
    ]


def test_acceptance_fw_8x8_grid_under_chaos():
    table = fw_table(32, seed=5)
    clean, _, _ = solve_fw(table, "im", 8)

    plan1 = acceptance_plan()
    out1, _rep1, m1 = solve_fw(table, "im", 8, plan1)
    np.testing.assert_array_equal(out1, clean)

    fired = plan1.fired()
    assert fired["lose"] >= 1
    summary1 = m1.summary()
    assert summary1["partitions_recomputed"] > 0

    # identical seed, fresh plan => identical results, metrics and trace
    plan2 = acceptance_plan()
    out2, _rep2, m2 = solve_fw(table, "im", 8, plan2)
    np.testing.assert_array_equal(out2, out1)
    assert plan2.fired() == fired
    assert m2.summary() == summary1
    assert trace_signature(m2) == trace_signature(m1)


# ----------------------------------------------------------------------
# README's chaos example: a retry runs at once
# ----------------------------------------------------------------------
def test_readme_chaos_example_retries_at_once(monkeypatch):
    """``repro solve apsp --engine spark --n 64 --chaos seed=42``
    through the library: the bytes of the fault-free solve, README's
    recovery counts, and no ``time.sleep`` from a ``repro`` frame — a
    retry waits for nothing, since every fault is a pure hash of its
    site."""
    import sys
    import time

    from repro.core import floyd_warshall
    from repro.workloads import make_problem

    table = make_problem("apsp", 64, 0, 0.3)[1]

    def solve(plan):
        with SparkleContext(fault_plan=plan) as sc:
            return floyd_warshall(
                table, engine="spark", sc=sc, r=4, kernel="recursive",
                r_shared=4, strategy="im", return_report=True,
            )

    clean, _ = solve(None)
    real_sleep = time.sleep
    repro_sleeps = []

    def sleep(seconds):
        caller = sys._getframe(1).f_globals.get("__name__", "")
        if caller == "repro" or caller.startswith("repro."):
            repro_sleeps.append((caller, seconds))
        real_sleep(seconds)

    monkeypatch.setattr(time, "sleep", sleep)
    out, report = solve(FaultPlan.from_string("seed=42"))
    monkeypatch.undo()

    assert out.tobytes() == clean.tobytes()
    recovery = report.recovery
    assert recovery["tasks_retried"] == 249
    assert recovery["partitions_recomputed"] == 1982
    assert recovery["executor_loss_events"] == 21
    assert recovery["transient_io_failures"] == 10
    assert repro_sleeps == []
