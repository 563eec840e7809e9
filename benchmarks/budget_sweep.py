"""Which spill paths still fire, per memory budget, on the three engine shapes.

    PYTHONPATH=src python benchmarks/budget_sweep.py [--memory-only]

One solve per (shape, budget): wall seconds, cache blocks and shuffle
buckets spilled, MB written to the spill store, and whether the result is
bit-identical to the unbudgeted solve.  ``--memory-only`` makes every
``.cache()`` persist MEMORY_ONLY (an evicted partition is recomputed from
its lineage, not spilled) — the variant EXPERIMENTS.md "Cache-block spill:
measured, kept (PR 23)" weighs against MEMORY_AND_DISK.
"""

import sys
import time

from repro.core.api import run_gep
from repro.sparkle import SparkleContext
from repro.sparkle.rdd import RDD
from repro.workloads import make_problem

#: name, problem, n, r, strategy (bench/spec.py), budgets in KiB (None = unbounded)
SHAPES = (
    ("fw_coarse_im", "apsp", 768, 8, "im",
     (None, 65536, 49152, 40960, 32768, 24576, 16384, 12288, 8192)),
    ("fw_fine_im", "apsp", 192, 24, "im", (None, 4096, 3072, 2048, 1024, 512)),
    ("ge_fine_cb", "ge", 256, 32, "cb", (None, 4096, 3072, 2048, 1024, 512)),
)


def solve(spec, table, r, strategy, budget_kib):
    budget = None if budget_kib is None else budget_kib << 10
    sc = SparkleContext(2, 1, memory_budget_bytes=budget)
    try:
        start = time.perf_counter()
        out, _ = run_gep(spec, table, engine="spark", r=r, strategy=strategy, sc=sc)
        return out, time.perf_counter() - start, sc.metrics
    finally:
        sc.stop()


def main(argv):
    if "--memory-only" in argv:
        RDD.cache = lambda self: self.persist("MEMORY_ONLY")
    print("shape budget_KiB wall_s blocks_spilled shuffle_blocks_spilled spill_MB identical")
    for name, problem, n, r, strategy, budgets in SHAPES:
        spec, table = make_problem(problem, n, 0, 0.35)
        reference = None
        for budget_kib in budgets:
            out, wall, m = solve(spec, table, r, strategy, budget_kib)
            if reference is None:
                reference = out.tobytes()
            print(
                name, budget_kib or "-", f"{wall:.2f}", m.blocks_spilled,
                m.shuffle_blocks_spilled, f"{m.spill_bytes_written / 1e6:.1f}",
                out.tobytes() == reference,
            )


if __name__ == "__main__":
    main(sys.argv[1:])
