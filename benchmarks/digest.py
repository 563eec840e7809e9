#!/usr/bin/env python3
"""`make scoreboard-digest`: BENCH_engine.json, the tracked perf trajectory,
as a digest of one scoreboard set.

    python3 bench/run.py --trace 1 --out .bench_tmp/set.json
    python3 benchmarks/digest.py .bench_tmp/set.json [BENCH_engine.json]

Keeps, per workload of the set, the five end-to-end metrics, the
per-layer readings that place them (``baseline.overhead_ratio`` against
plain NumPy, ``host.all_cpus_wall_ratio`` for what pinning hides,
``kernels.updates_per_s`` for the kernel's own rate) and the exact
counts; plus the set's host block and the commit it measured
(``-dirty``: the working tree differed from that commit).  The digest it
replaces stays beside it as ``previous`` (without its own ``previous``),
so the file holds the last step of the trajectory.  Nothing is measured
here, so the trajectory and the scoreboard cannot disagree.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("baseline.overhead_ratio", "host.all_cpus_wall_ratio", "kernels.updates_per_s")


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    record = json.loads(Path(argv[1]).read_text())
    out = Path(argv[2]) if len(argv) == 3 else ROOT / "BENCH_engine.json"
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    digest = {
        "source": "bench/run.py --trace 1 --out, digested by benchmarks/digest.py",
        "commit": commit,
        "host": record["host"],
        "seed": record["seed"],
        "seconds": record["seconds"],
        "correct": record["correct"],
        "workloads": {},
    }
    for name, result in record["workloads"].items():
        layers = result.get("per_layer", {}).get("metrics", {})
        digest["workloads"][name] = {
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
            "per_layer": {k: layers[k] for k in LAYERS if k in layers},
            "exact_counts": result["exact_counts"],
        }
    if out.exists():
        previous = json.loads(out.read_text())
        previous.pop("previous", None)
        digest["previous"] = previous
    out.write_text(json.dumps(digest, indent=1) + "\n")
    print(f"{out}: {len(digest['workloads'])} workloads at {commit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
