#!/usr/bin/env python3
"""`make scoreboard-pairs`: alternating parent/change pairs of the repo's benchmark.

    python3 benchmarks/pairs.py --parent REV --workloads "fw_fine_im ..." --pairs 10

Checks REV's committed files out under ``.bench_tmp/parent`` (``git
archive``: what the benchmark's driver runs, and nothing registered in
``.git``), runs each side's *own* ``bench/run.py --workload W --seed S``
— the change side is this working tree — alternating which side goes
first, a fresh seed per pair, and collects the sets into
``.bench_tmp/pairs/base.json`` / ``new.json``.  Prints, per workload and
end-to-end metric, how many pairs the change won (the nine-tenths rule
``--compare`` does not compute) and whether the exact counts agreed in
every pair, then ends with ``bench/run.py --compare``.  Writes only under
the git-ignored ``.bench_tmp/``; the checkout is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="revision the change is compared to")
    p.add_argument("--workloads", required=True, help="space-separated workload names")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = p.parse_args()
    workloads = args.workloads.split()
    tmp = ROOT / ".bench_tmp"
    dirs = {"base": tmp / "parent", "new": ROOT}
    out = tmp / "pairs"
    for stale in (dirs["base"], out):
        shutil.rmtree(stale, ignore_errors=True)
        stale.mkdir(parents=True)
    tree = subprocess.run(
        ["git", "-C", str(ROOT), "archive", args.parent], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dirs["base"])], input=tree, check=True)
    sets: dict[str, list[dict]] = {"base": [], "new": []}
    try:
        for pair in range(args.pairs):
            order = ("base", "new") if pair % 2 == 0 else ("new", "base")
            for workload in workloads:
                for side in order:
                    path = out / f"{side}-{workload}-{pair}.json"
                    subprocess.run(
                        [sys.executable, "bench/run.py", "--workload", workload,
                         "--seed", str(args.seed + pair), "--out", str(path)],
                        cwd=dirs[side], check=True, stdout=subprocess.DEVNULL,
                    )
                    sets[side].append(json.loads(path.read_text()))
                    print(f"pair {pair} {workload} {side}: done", flush=True)
    finally:
        shutil.rmtree(dirs["base"], ignore_errors=True)
    for side, runs in sets.items():
        (out / f"{side}.json").write_text(json.dumps(runs))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for workload in workloads:
        base, new = (
            [s["workloads"][workload] for s in sets[side] if workload in s["workloads"]]
            for side in ("base", "new")
        )
        same = all(b["exact_counts"] == n["exact_counts"] for b, n in zip(base, new))
        failed = sum(r["failed"] for r in base + new)
        print(f"{workload}: exact counts {'equal' if same else 'DIFFER'} in every pair, "
              f"{failed} failed operations")
        for m in metrics:
            b = [r["metrics"][m["name"]]["value"] for r in base]
            n = [r["metrics"][m["name"]]["value"] for r in new]
            sign = -1 if m["better"] == "lower" else 1
            wins = sum(sign * (y - x) > 0 for x, y in zip(b, n))
            ties = sum(x == y for x, y in zip(b, n))
            iqr = "n/a"
            if len(b) >= 4:
                q1, _, q3 = statistics.quantiles(b, n=4)
                iqr = f"{q3 - q1:.4g}"
            print(f"  {m['name']:20s} change wins {wins}/{len(b)} (ties {ties})  medians "
                  f"{statistics.median(b):.4g} -> {statistics.median(n):.4g} {m['unit']} "
                  f"({statistics.median(n) / statistics.median(b):.3f}x)  base IQR {iqr}")
    return subprocess.run(
        [sys.executable, "bench/run.py", "--compare", str(out / "base.json"),
         str(out / "new.json")], cwd=ROOT,
    ).returncode


if __name__ == "__main__":
    sys.exit(main())
