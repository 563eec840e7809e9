"""Layer probes: leaf functions too hot to wrap with spans, and the
single-threaded baselines every engine number sits beside.  Run once per
workload, at that workload's shapes, in a process of its own."""

from __future__ import annotations

import sys
import time

import common
import spec

common.add_src_to_path()

import numpy as np  # noqa: E402
from repro.semiring import MinPlus  # noqa: E402
from repro.sparkle import SparkleContext  # noqa: E402
from repro.sparkle.durable import SolveJournal  # noqa: E402
from repro.util import sizeof_block  # noqa: E402

import inputs  # noqa: E402

LAUNCH_TASKS = 512


def best_of(fn, repeats: int) -> float:
    """Fastest of ``repeats`` calls, seconds (a probe wants the cost of
    the code, not of the host's noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def per_call_us(fn, calls: int) -> float:
    def loop():
        for _ in range(calls):
            fn()

    return 1e6 * best_of(loop, 5) / calls


def probe(w: spec.Workload, seed: int, toy: bool) -> dict[str, float]:
    table = inputs.make_table(w.problem, w.n, seed)
    tile = -(-w.n // w.r)  # the workload's tile edge
    block = np.ascontiguousarray(table[:tile, :tile])
    col, row = block[:, 0, None], block[None, 0, :]
    calls = 200 if toy else 2000
    out = {
        "baseline.numpy_ref_s": best_of(lambda: inputs.numpy_ref(w.problem, table), 1 if toy else 3),
        "baseline.local_blocked_s": best_of(lambda: inputs.blocked_oracle(w.problem, table, w.r), 1),
    }

    with SparkleContext(
        num_executors=spec.EXECUTORS, cores_per_executor=spec.CORES_PER_EXECUTOR
    ) as sc:
        rdd = sc.parallelize(range(LAUNCH_TASKS), LAUNCH_TASKS).map(lambda x: x)
        out["scheduler.task_launch_us"] = 1e6 * best_of(rdd.collect, 3) / LAUNCH_TASKS

    mul = MinPlus().mul
    out["semiring.mul_us"] = per_call_us(lambda: mul(col, row), calls)
    raw_us = per_call_us(lambda: np.add(col, row), calls)
    out["semiring.guard_ratio"] = out["semiring.mul_us"] / raw_us
    tagged = ((0, 1), ("x", block))  # one role-tagged tile, as shuffled
    out["util.sizeof_block_us"] = per_call_us(lambda: sizeof_block(tagged), calls)

    journal = SolveJournal("probe-journal")  # cwd is the scratch directory
    appends = []
    for i in range(5 if toy else 20):
        start = time.perf_counter()
        journal.append({"kind": "probe", "i": i})
        appends.append(time.perf_counter() - start)
    out["durable.fsync_append_ms"] = 1e3 * common.median(appends)
    return out


def main() -> int:
    args = common.child_parser(__doc__).parse_args()
    w = common.workload_from(args)
    common.write_json(args.out, probe(w, args.seed, bool(args.toy)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
