"""One engine workload in a fresh process: warm-up round, timed rounds,
then correctness and leak checks.  Spawned by run.py; writes one JSON
record to ``--out``.

A round is what ``repro solve`` users pay per solve: context start,
``run_gep`` on the table, context stop.
"""

from __future__ import annotations

import os
import resource
import sys
import time

import common
import spec

common.add_src_to_path()

import numpy as np  # noqa: E402
from repro.core.api import run_gep  # noqa: E402
from repro.sparkle import SparkleContext  # noqa: E402

import inputs  # noqa: E402
from tracer import Tracer, aggregate  # noqa: E402


def report_counts(report) -> dict[str, int]:
    """The exact counts, read from the program's own solve report."""
    summary = report.summary()
    jobs = getattr(report.engine_metrics, "jobs", ())
    return {
        "scheduler.jobs": summary.get("jobs", 0),
        "scheduler.stages": summary.get("stages", 0),
        "scheduler.tasks": summary.get("tasks", 0),
        "shuffle.bytes_written": summary.get("shuffle_bytes", 0),
        "shuffle.bytes_read": sum(
            stage.shuffle_bytes_read for job in jobs for stage in job.stages
        ),
        "storage.bytes_read": summary.get("storage_bytes_read", 0),
    }


def run_round(w: spec.Workload, gspec, table):
    stolen = common.steal_seconds()
    t0 = time.perf_counter()
    sc = SparkleContext(
        num_executors=spec.EXECUTORS,
        cores_per_executor=spec.CORES_PER_EXECUTOR,
        backend=w.backend,
    )
    t1 = time.perf_counter()
    try:
        out, report = run_gep(
            gspec, table, engine="spark", r=w.r, strategy=w.strategy, sc=sc
        )
    finally:
        t2 = time.perf_counter()
        sc.stop()
        t3 = time.perf_counter()
    record = {
        "start": t0, "end": t3, "steal_s": common.steal_seconds() - stolen,
        "ok": 1, "attempted": 1,
        "context.start_s": t1 - t0, "context.stop_s": t3 - t2,
    }
    record.update(report_counts(report))
    return out, record


def main() -> int:
    args = common.child_parser(__doc__).parse_args()
    w = common.workload_from(args)
    stolen = common.steal_seconds()

    own_start = time.perf_counter()
    gspec = inputs.gep_spec(w.problem)
    table = inputs.make_table(w.problem, w.n, args.seed)
    own_s = time.perf_counter() - own_start

    run_round(w, gspec, table)  # warm-up: part of set-up, never timed
    record: dict = {
        "workload": w.name,
        # child-process start to first timed round; input generation is
        # the benchmark's own work
        "setup": {"start": args.spawned, "end": time.perf_counter(), "own_s": own_s,
                  "steal_s": common.steal_seconds() - stolen},
    }

    tracer = Tracer()
    modes = common.round_modes(args.rounds, args.traced)
    rounds, outputs, errors = [], [], []
    for traced in modes:
        if traced:
            tracer.install("engine")
        try:
            out, rec = run_round(w, gspec, table)
        except Exception as exc:  # a failed solve is a failed operation
            errors.append(repr(exc))
            continue
        finally:
            tracer.uninstall()
            spans = tracer.drain()
        rec["traced"] = traced
        if traced:
            layers = aggregate(spans)
            run_s = layers.get("executors.task_run_s", 0.0)
            if run_s > 0:  # task time under no named layer span
                layers["trace.unattributed_share"] = (
                    layers["executors.task_self_s"] / run_s
                )
            rec["layers"] = layers
        rounds.append(rec)
        outputs.append(out)
    record["peak_rss_mb"] = common.rss_mb()
    record["workers_peak_rss_mb"] = common.rss_mb(resource.RUSAGE_CHILDREN)
    if args.traced and args.cpus:
        # what pinning hides: one more round on every CPU the benchmark may
        # use (threads a context starts inherit this thread's affinity)
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {int(c) for c in args.cpus.split(",")})
        try:
            out, record["all_cpus_round"] = run_round(w, gspec, table)
            outputs.append(out)
        except Exception as exc:
            errors.append(repr(exc))
        finally:
            os.sched_setaffinity(0, pinned)
    record["trace_missing"] = tracer.missing

    # every timed output: bit-identical to the blocked single-threaded
    # oracle, and close to the plain-NumPy loop (both computed by the
    # run's first life and kept in its scratch directory for the others)
    oracle = inputs.kept("oracle.npy", lambda: inputs.blocked_oracle(w.problem, table, w.r))
    reference = inputs.kept("reference.npy", lambda: inputs.numpy_ref(w.problem, table))
    for i, out in enumerate(outputs):
        if not np.array_equal(out, oracle):
            errors.append(f"round {i}: output differs from the blocked oracle")
        elif not np.allclose(out, reference):
            errors.append(f"round {i}: output not close to the NumPy reference")
    record.update(
        rounds=rounds,
        attempted=len(modes) + ("all_cpus_round" in record),
        failed=len(errors),
        errors=errors,
        leaks=common.leaks(),
    )
    common.write_json(args.out, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
