"""The cyclic collector's bill per solve, on the benchmark's engine shapes.

    PYTHONPATH=src python benchmarks/gc_ledger.py [--solves N] [WORKLOAD ...]

For each engine workload of ``bench/spec.py`` (all four by default): one
warm-up round, then ``--solves`` rounds shaped like the benchmark's —
context start, ``run_gep``, ``stop()`` — on one CPU, with ``gc.callbacks``
metering every collection the driver process starts.  Prints, per solve:
collections per generation, the collector's milliseconds, the objects
they collected, and how many started while an engine job ran
(``SparkleContext.run_job``).
Worker processes (``fw_mid_procs``) collect on their own and are not
metered.  ``make gc-ledger`` runs it; EXPERIMENTS.md "A solve is acyclic"
has readings.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import inputs  # noqa: E402
import spec  # noqa: E402
from repro.core.api import run_gep  # noqa: E402
from repro.sparkle import SparkleContext  # noqa: E402

COLUMNS = ("gen0", "gen1", "gen2", "collector_ms", "collected", "in_jobs")


class Ledger:
    """Collections, collector seconds and objects collected, by
    generation, while installed; ``in_jobs`` counts the collections
    that started while an engine job ran."""

    def __init__(self) -> None:
        self.runs = [0, 0, 0]
        self.seconds = 0.0
        self.collected = 0
        self.in_jobs = 0
        self._running = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.runs[info["generation"]] += 1
            self.in_jobs += self._running > 0
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collected += info["collected"]

    def metering(self, run):
        """``run()`` with this ledger installed and jobs marked."""
        run_job = SparkleContext.run_job

        def marked(sc, *args, **kwargs):
            self._running += 1
            try:
                return run_job(sc, *args, **kwargs)
            finally:
                self._running -= 1

        SparkleContext.run_job = marked
        gc.callbacks.append(self)
        try:
            return run()
        finally:
            gc.callbacks.remove(self)
            SparkleContext.run_job = run_job


def measure(w: spec.Workload, solves: int) -> dict[str, float]:
    """One warm-up round of ``w``, then ``solves`` metered rounds; the
    ledger per solve."""
    gspec = inputs.gep_spec(w.problem)
    table = inputs.make_table(w.problem, w.n, 0)

    def solve_round():
        sc = SparkleContext(
            num_executors=spec.EXECUTORS,
            cores_per_executor=spec.CORES_PER_EXECUTOR,
            backend=w.backend,
        )
        try:
            run_gep(gspec, table, engine="spark", r=w.r, strategy=w.strategy, sc=sc)
        finally:
            sc.stop()

    solve_round()
    ledger = Ledger()
    ledger.metering(lambda: [solve_round() for _ in range(solves)])
    row = dict(zip(("gen0", "gen1", "gen2"), (n / solves for n in ledger.runs)))
    row["collector_ms"] = 1e3 * ledger.seconds / solves
    row["collected"] = ledger.collected / solves
    row["in_jobs"] = ledger.in_jobs / solves
    return row


def main(argv=None) -> int:
    engine = [name for name, w in spec.WORKLOADS.items() if w.kind == "engine"]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", help=f"default: {' '.join(engine)}")
    p.add_argument("--solves", type=int, default=9)
    args = p.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(engine))
    if unknown:
        p.error(f"not an engine workload: {' '.join(unknown)}")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    print("workload", *COLUMNS, "(per solve)")
    for name in args.workloads or engine:
        row = measure(spec.WORKLOADS[name], args.solves)
        print(name, *(f"{row[c]:.2f}" for c in COLUMNS), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
