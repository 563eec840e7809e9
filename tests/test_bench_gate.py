"""Bench gate for wavefront pipelining (tier-2, ``-m perf``).

Depth 2 must really overlap stage windows and stay bit-identical (a
counter claim, runs everywhere) and cut per-stage idle executor-seconds
by >= 30% at bench scale (a wall-clock claim: needs real parallelism,
so it skips — with a recorded reason — on single-core hosts).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.dpspark import GepSparkSolver, make_kernel
from repro.core.gep import FloydWarshallGep
from repro.sparkle import SparkleContext

from .conftest import fw_table

pytestmark = [pytest.mark.perf, pytest.mark.slow]

GATE_N = 96
GATE_R = 12

REPO_ROOT = Path(__file__).resolve().parent.parent
#: where gate outcomes are recorded: git-ignored, so a test run leaves
#: every tracked file (``BENCH_engine.json`` included) untouched
GATE_RECORD = REPO_ROOT / ".bench_tmp" / "bench_gate.json"
_TRACKED_REPORT = REPO_ROOT / "BENCH_engine.json"
_TRACKED_BYTES = _TRACKED_REPORT.read_bytes() if _TRACKED_REPORT.exists() else None


def _record_gate(section: str, key: str, status: str, path: Path) -> None:
    """Merge one gate outcome into the JSON record at ``path``."""
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        report = {}
    report.setdefault(section, {})[key] = status
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n")


# ----------------------------------------------------------------------
# wavefront pipelining gate: barrier-wait reduction at bench scale
# ----------------------------------------------------------------------
MIN_BARRIER_WAIT_REDUCTION = 0.30

_PIPELINE_RESULTS: dict[int, dict] = {}


def _measure_pipelined():
    """The bench configuration (4 executors x 2 cores, threads) at gate
    scale, once per pipeline depth, cached across the gate's tests."""
    if _PIPELINE_RESULTS:
        return _PIPELINE_RESULTS
    spec = FloydWarshallGep()
    table = fw_table(GATE_N, seed=0)
    for depth in (1, 2):
        with SparkleContext(4, 2, pipeline_depth=depth) as sc:
            solver = GepSparkSolver(
                spec,
                sc,
                r=GATE_R,
                kernel=make_kernel(spec, "iterative"),
                strategy="im",
            )
            t0 = time.perf_counter()
            out, _ = solver.solve(table.copy())
            wall = time.perf_counter() - t0
            _PIPELINE_RESULTS[depth] = {
                "out": out,
                "wall": wall,
                **sc.metrics.pipeline_summary(),
            }
    return _PIPELINE_RESULTS


def _record_pipeline_gate(status: str, path: Path = GATE_RECORD) -> None:
    """Record the barrier-wait gate outcome (``pipeline.barrier_wait_gate``).

    A skip on an undersized host must be an explicit, auditable record
    (``"SKIPPED: ..."``) rather than silence — otherwise a 1-core CI
    container looks identical to a passing gate.
    """
    _record_gate("pipeline", "barrier_wait_gate", status, path)


@pytest.mark.pipeline
def test_gate_pipelining_overlaps_and_stays_bit_identical():
    """Host-independent half of the pipelining claim: depth 2 really
    overlaps stage windows (counter, not wall-clock) and never changes
    the answer."""
    res = _measure_pipelined()
    assert np.array_equal(res[1]["out"], res[2]["out"])
    assert res[1]["overlapped_stages"] == 0, "barrier mode must not overlap"
    assert res[2]["overlapped_stages"] > 0
    assert res[2]["pipeline_depth_achieved"] >= 2


@pytest.mark.pipeline
def test_gate_barrier_wait_reduction():
    """Timing half: depth 2 must cut per-stage idle executor-seconds by
    >= 30% at bench scale.  The interval accounting is wall-clock-based,
    so on a single-core host it measures OS scheduling noise, not
    overlap — skip with a recorded reason."""
    cores = os.cpu_count() or 1
    if cores < 2:
        reason = (
            f"SKIPPED: <2 cores (host has {cores}; barrier-wait intervals "
            "are wall-clock spans, which a single core cannot overlap "
            "deterministically)"
        )
        _record_pipeline_gate(reason)
        pytest.skip(reason)
    res = _measure_pipelined()
    barrier = res[1]["barrier_wait_seconds"]
    piped = res[2]["barrier_wait_seconds"]
    assert barrier > 0, "gate workload produced no measurable stage tail"
    reduction = 1.0 - piped / barrier
    assert reduction >= MIN_BARRIER_WAIT_REDUCTION, (
        f"pipelining only cut barrier wait {reduction:.0%} "
        f"({barrier:.3f}s -> {piped:.3f}s); the gate requires "
        f">= {MIN_BARRIER_WAIT_REDUCTION:.0%}"
    )
    _record_pipeline_gate(
        f"PASS: {reduction:.0%} reduction ({barrier:.3f}s -> {piped:.3f}s, "
        f"{cores} cores)"
    )


def test_gate_records_leave_tracked_files_alone(tmp_path):
    """Runs last: the recorder merges its keys into the file it is
    given, and neither it nor the gates above (which record to the
    default, git-ignored path) changed a byte of ``BENCH_engine.json``
    since this module was imported."""
    record = tmp_path / "gate.json"
    _record_gate("derived", "probe", "PASS: probe", record)
    _record_pipeline_gate("SKIPPED: probe", record)
    assert json.loads(record.read_text()) == {
        "derived": {"probe": "PASS: probe"},
        "pipeline": {"barrier_wait_gate": "SKIPPED: probe"},
    }
    now = _TRACKED_REPORT.read_bytes() if _TRACKED_REPORT.exists() else None
    assert now == _TRACKED_BYTES
