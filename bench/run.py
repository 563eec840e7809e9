#!/usr/bin/env python3
"""The repo's benchmark: one command, six workloads, every metric by name.

    python3 bench/run.py --workload NAME --seed S --seconds N --trace 0|1
    python3 bench/run.py --seed S [--trace 1] [--out PATH]     # all six
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --selftest

Each workload runs in fresh child processes (engine_child.py,
service_child.py, probes.py), all on one CPU; this file spawns them,
samples that CPU's speed while they run, turns their records into the
metrics of spec.py at reference speed, checks correctness, leaks and
exact counts, and prints.  With ``--workload`` the last line of stdout is the
JSON object BENCHMARK.json's driver reads.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import common
import spec

BENCH = Path(__file__).resolve().parent
SPEED = common.SpeedSampler()
ALL_CPUS = os.sched_getaffinity(0)  # before main() pins this process to one
SCRATCH = common.ROOT / ".bench_tmp"
CHILD_TIMEOUT_S = 170
GROUP_GRACE_S = 2.0
NAME_RULE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RULE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


class BenchError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# children
# ----------------------------------------------------------------------
def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def spawn(workdir: Path, out_name: str, script: str, *script_args: str) -> dict:
    """Run one child to completion in its own process group, sampling the
    CPU's speed beside it; returns the record it wrote.  Whatever it
    leaves running is killed and reported."""
    out = workdir / out_name
    cmd = [sys.executable, str(BENCH / script), *script_args, "--out", str(out),
           "--spawned", repr(time.perf_counter())]
    proc = subprocess.Popen(
        cmd, cwd=workdir, stdout=sys.stderr, start_new_session=True,
        env=dict(os.environ, TMPDIR=str(workdir)),
    )
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        while (code := proc.poll()) is None and time.monotonic() < deadline:
            SPEED.sample()
            time.sleep(spec.SAMPLE_PERIOD_S)
    except BaseException:  # interrupted: leave nothing running
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    # helpers that exit when their parent does (the interpreter's resource
    # tracker) get a moment; anything still alive after it is a straggler
    grace = time.monotonic() + GROUP_GRACE_S
    while code is not None and group_alive(proc.pid) and time.monotonic() < grace:
        time.sleep(0.01)
    stragglers = group_alive(proc.pid)
    if stragglers:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if code is None:
        raise BenchError(f"{script} did not finish within {CHILD_TIMEOUT_S} s")
    if code != 0 or not out.exists():
        raise BenchError(f"{script} {' '.join(script_args)} exited with code {code}")
    with open(out, encoding="utf-8") as fh:
        record = json.load(fh)
    if stragglers:
        record.setdefault("leaks", []).append(f"process group {proc.pid} outlived {script}")
    return record


def child_args(w: spec.Workload, seed: int, rounds: int, toy: bool) -> list[str]:
    return ["--workload", w.name, "--seed", str(seed), "--rounds", str(rounds),
            "--toy", str(int(toy)), "--cpus", ",".join(map(str, sorted(ALL_CPUS)))]


def lifetime(workdir: Path, tag: str, w: spec.Workload, *args: str) -> dict:
    """One start-to-stop life of the workload's program, in children, in
    a directory of its own under the run's."""
    home = workdir / tag
    home.mkdir()
    if w.kind == "engine":
        return spawn(home, "record.json", "engine_child.py", *args)
    return spawn(home, "record.json", "service_child.py", "loadgen", *args)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def exact_counts(rounds: list[dict]) -> tuple[dict, list[str]]:
    """The per-round exact counts, and which of them differed between rounds."""
    counts, differing = {}, []
    for name in spec.EXACT_COUNTS:
        seen = [r[name] for r in rounds if name in r]
        if seen:
            counts[name] = seen[0]
            if any(v != seen[0] for v in seen):
                differing.append(f"{name} differs between rounds: {seen}")
    return counts, differing


def at_reference_speed(interval: dict) -> float:
    """Seconds a recorded interval (``start``, ``end``, ``steal_s`` and,
    for set-up, the benchmark's ``own_s``) would have taken on the
    undisturbed reference host: its wall less what the hypervisor stole
    (never more than three quarters of it), times the CPU's speed while
    it ran."""
    wall = interval["end"] - interval["start"] - interval.get("own_s", 0.0)
    net = max(wall - interval["steal_s"], 0.25 * wall)
    return net * SPEED.rel(interval["start"], interval["end"])


def normalise(rec: dict) -> dict:
    """Add the reference-speed numbers to one life's record: ``setup_s``,
    and per round ``net_wall_s`` and ``latencies_s`` (an engine round is
    one operation; a service round has one latency per request)."""
    rec["setup_s"] = at_reference_speed(rec["setup"])
    for r in rec["rounds"]:
        r["wall_s"] = r["end"] - r["start"]
        r["speed_rel"] = SPEED.rel(r["start"], r["end"])
        r["net_wall_s"] = at_reference_speed(r)
        r["latencies_s"] = [
            (end - start) * SPEED.rel(start, end) for start, end in r.pop("requests")
        ] if "requests" in r else [r["net_wall_s"]]
    return rec


def pooled_latency(rounds: list[dict]) -> dict:
    """Percentiles over the operations of ``rounds`` pooled."""
    return common.latency_block([s for r in rounds for s in r["latencies_s"]])


def quieter_half(rounds: list[dict]) -> list[dict]:
    """The half of ``rounds`` (at least three) taken while the CPU was
    fastest, flagged ``kept``.  The speed correction is proportional; the
    fine-tile workloads slow down more than proportionally on a slow host
    (time ~ speed^-1.3 to -1.5), so a run's least disturbed rounds say most."""
    keep = max(3, len(rounds) // 2)
    ranked = sorted(rounds, key=lambda r: r["speed_rel"], reverse=True)
    for i, r in enumerate(ranked):
        r["kept"] = i < keep
    return ranked[:keep]


def end_to_end(lives: list[dict]) -> tuple[dict[str, float], dict]:
    """The metrics of an untraced run from the quieter half of the timed
    rounds of all its lives, and the latency block they came from."""
    every = [r for rec in lives for r in rec["rounds"]]
    rounds = quieter_half(every)
    latency = pooled_latency(rounds)
    return {
        "setup_s": common.median([rec["setup_s"] for rec in lives]),
        "op_latency_p50_ms": latency["p50_ms"],
        "op_latency_tail_ms": latency["tail_ms"],
        "ops_per_s": common.median([r["ok"] / r["net_wall_s"] for r in rounds]),
        "peak_rss_mb": common.median([rec["peak_rss_mb"] for rec in lives]),
    }, latency


def per_layer(rec: dict, probe: dict) -> dict[str, float]:
    """The ledger of a traced run: medians over its traced rounds, the
    probes, and the traced-against-untraced comparison."""
    traced = [r for r in rec["rounds"] if r["traced"]]
    plain = [r for r in rec["rounds"] if not r["traced"]]
    flat = [{**{k: v for k, v in r.items() if k != "layers"}, **r["layers"]} for r in traced]
    out = {
        m.name: common.median([r.get(m.name, 0.0) for r in flat])
        for m in spec.PER_LAYER
    }
    out.update(probe)
    out["backend.workers_peak_rss_mb"] = rec.get("workers_peak_rss_mb", 0.0)
    latency = pooled_latency(plain)
    if out["service.send_request.calls"]:
        out["service.latency_p99_ms"] = latency["p99_ms"]
    out["trace.overhead_share"] = (
        common.median([r["net_wall_s"] for r in traced])
        / common.median([r["net_wall_s"] for r in plain]) - 1.0
    )
    out["baseline.overhead_ratio"] = (
        latency["p50_ms"] / 1e3 / probe["baseline.numpy_ref_s"]
    )
    out["host.speed_rel"] = common.median([r["speed_rel"] for r in traced])
    if "all_cpus_round" in rec:  # engine workloads
        out["host.all_cpus_wall_ratio"] = at_reference_speed(
            rec["all_cpus_round"]
        ) / common.median([r["net_wall_s"] for r in plain])
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    """Run one workload end to end; returns its result record."""
    w = spec.toy(spec.WORKLOADS[name]) if toy else spec.WORKLOADS[name]
    SCRATCH.mkdir(exist_ok=True)
    workdir = SCRATCH / f"{name}-{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir()
    shm_before = shm_entries()
    try:
        if trace:
            args = child_args(w, seed, w.traced_rounds, toy)
            main = normalise(lifetime(workdir, "main", w, *args, "--traced", "1"))
            probe = spawn(workdir, "probes.json", "probes.py", *args)
            records = [main]
            metrics = per_layer(main, probe)
            table = spec.PER_LAYER
            samples = {"rounds": main["rounds"], "trace_missing": main["trace_missing"]}
        else:
            # identical lives: each gives one set-up and its share of the rounds
            rounds = 1 if toy else spec.rounds_per_life(w, seconds)
            args = child_args(w, seed, rounds, toy)
            records = [
                normalise(lifetime(workdir, f"life{i}", w, *args)) for i in range(w.lives)
            ]
            metrics, latency = end_to_end(records)
            table = spec.END_TO_END
            samples = {"rounds": [r for rec in records for r in rec["rounds"]],
                       "setup_s": [rec["setup_s"] for rec in records],
                       "latency": latency}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()  # only when no other run is using it
        except OSError:
            pass
    every = [r for rec in records for r in rec["rounds"]]
    for r in every:  # the record keeps each round's median, not its samples
        r["p50_ms"] = 1e3 * common.median(r.pop("latencies_s"))
    counts, problems = exact_counts(every)
    for rec in records:
        problems += rec.get("errors", [])
        problems += [f"left behind: {leak}" for leak in rec.get("leaks", [])]
    problems += [f"left behind: /dev/shm/{s}" for s in sorted(shm_entries() - shm_before)]
    attempted = sum(rec.get("attempted", 0) for rec in records)
    failed = sum(rec.get("failed", 0) for rec in records)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / max(1, attempted),
        "problems": problems,
        "metrics": {
            m.name: {"value": float(metrics.get(m.name, 0.0)), "unit": m.unit} for m in table
        },
        "exact_counts": counts,
        "samples": samples,
    }


def driver_line(result: dict) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({k: result[k] for k in keys})


def print_metrics(name: str, result: dict) -> None:
    verdict = "ok" if result["correct"] else "FAILED"
    print(f"== {name}: {verdict}, {result['failed']} of {result['attempted']} "
          f"operations failed (closed loop, {spec.CLIENTS} clients; "
          f"{spec.EXECUTORS} executors x {spec.CORES_PER_EXECUTOR} core; "
          "pinned to one CPU, times at reference speed)")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:34s} {entry['value']:>16.6g} {entry['unit']}")
    for problem in result["problems"]:
        print(f"  !! {problem}")


def host_block() -> dict:
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def git_status() -> str | None:
    if not (common.ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "status", "--porcelain"], cwd=common.ROOT, check=True,
            capture_output=True, text=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def run_all(seed: int, seconds: float, trace: bool, out_path: str | None) -> int:
    """Every workload, untraced (and traced with ``--trace 1``)."""
    before = git_status()
    record = {"schema": 1, "host": host_block(), "seed": seed, "seconds": seconds,
              "workloads": {}}
    ok = True
    for name in spec.WORKLOADS:
        result = run_workload(name, seed, seconds, trace=False)
        print_metrics(name, result)
        if trace:
            layers = run_workload(name, seed, seconds, trace=True)
            print_metrics(f"{name} (traced)", layers)
            result["per_layer"] = layers
            ok = ok and layers["correct"]
        record["workloads"][name] = result
        ok = ok and result["correct"]
    if git_status() != before:
        print("!! the run changed `git status --porcelain`")
        ok = False
    record["correct"] = ok
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    print(json.dumps({"correct": ok, "host": record["host"]}))
    return 0 if ok else 1


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def load_sets(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data if isinstance(data, list) else [data]


def spread_of(values: list[float]) -> float | None:
    """Inter-quartile distance as a share of the median (needs 4 runs)."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(metric: spec.Metric, base: list[float], new: list[float]) -> tuple[str, float, float]:
    """``(better|same|worse|unresolved, ratio, base median)`` by the
    bounds of spec.py and the rules of README.md (protocol section)."""
    b, n = statistics.median(base), statistics.median(new)
    lower = metric.better == "lower"
    worse_by = (n - b) / abs(b) if lower else (b - n) / abs(b)
    spread = spread_of(base)
    clean_win = max(new) < min(base) if lower else min(new) > max(base)
    if worse_by > metric.bound:
        word = "worse"
    elif spread is not None and spread > metric.bound and not clean_win:
        word = "unresolved"
    elif worse_by < 0 and -worse_by > (spread or 0.0):
        word = "better"
    else:
        word = "same"
    return word, n / b, b


def compare(path_a: str, path_b: str) -> int:
    a_sets, b_sets = load_sets(path_a), load_sets(path_b)
    print(f"base {path_a} ({len(a_sets)} run(s)) vs {path_b} ({len(b_sets)} run(s)); "
          "each cell: ratio to the base median (base) verdict")
    worse = False
    for name in spec.WORKLOADS:
        a_runs = [s["workloads"][name] for s in a_sets if name in s.get("workloads", {})]
        b_runs = [s["workloads"][name] for s in b_sets if name in s.get("workloads", {})]
        if not a_runs or not b_runs:
            continue
        cells = []
        for metric in spec.END_TO_END:
            base = [r["metrics"][metric.name]["value"] for r in a_runs]
            new = [r["metrics"][metric.name]["value"] for r in b_runs]
            word, ratio, b = verdict(metric, base, new)
            worse = worse or word == "worse"
            cells.append(f"{metric.name} {ratio:.3f}x ({b:.4g} {metric.unit}) {word}")
        fail_a = max(r["failed_share"] for r in a_runs)
        fail_b = max(r["failed_share"] for r in b_runs)
        word = "worse" if fail_b > fail_a else "same"  # any increase counts
        worse = worse or word == "worse"
        cells.append(f"failed_share {fail_b:.4g} ({fail_a:.4g}) {word}")
        print(f"{name}: " + " | ".join(cells))
    return 1 if worse else 0


# ----------------------------------------------------------------------
# --selftest
# ----------------------------------------------------------------------
def selftest() -> int:
    """Every workload, the tracer and the probes at toy scale, plus the
    output schema and the naming rule."""
    import tracer

    start = time.monotonic()
    before = git_status()
    declared = spec.benchmark_json()
    manifest = common.ROOT / "BENCHMARK.json"
    if manifest.exists():
        with open(manifest, encoding="utf-8") as fh:
            assert json.load(fh) == declared, "BENCHMARK.json disagrees with bench/spec.py"
    names = [w["name"] for w in declared["workloads"]]
    for table in (declared["end_to_end"], declared["per_layer"]):
        names += [m["name"] for m in table]
        for m in table:
            assert UNIT_RULE.match(m["unit"]), f"bad unit {m['unit']!r}"
    for name in names:
        assert NAME_RULE.match(name), f"bad name {name!r}"
    assert len(set(names)) == len(names), "a name is used twice"
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in declared["workloads"])

    # self time is the span less the union of its children, across threads
    spans = [(1, "a", 0.0, 10.0, None, None), (2, "b", 1.0, 4.0, 1, None),
             (3, "b", 3.0, 6.0, 1, None), (4, "executors.task", 2.0, 3.0, 1, 0.5)]
    agg = tracer.aggregate(spans)
    assert abs(agg["a.self_s"] - 5.0) < 1e-9 and agg["b.calls"] == 2, agg
    assert agg["executors.task_wait_s"] == 0.5 and agg["executors.task_run_s"] == 1.0

    results = {}
    for name in spec.WORKLOADS:
        for trace, table in ((False, spec.END_TO_END), (True, spec.PER_LAYER)):
            result = run_workload(name, seed=7, seconds=1, trace=trace, toy=True)
            line = json.loads(driver_line(result))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert set(line["metrics"]) == {m.name for m in table}, name
            assert all(
                isinstance(e["value"], float) and e["unit"] == m.unit
                for m, e in zip(table, line["metrics"].values())
            )
            assert line["attempted"] >= 1 and line["failed"] == 0, result["problems"]
            assert line["correct"], result["problems"]
            assert not result["samples"].get("trace_missing"), result["samples"]
            if not trace:
                assert all(e["value"] > 0 for e in line["metrics"].values()), line
                results[name] = result
            else:
                layers = line["metrics"]
                engine_ran = layers["executors.run_tasks.calls"]["value"] > 0
                assert engine_ran == (name != "svc_hits"), name
    one_set = {"workloads": results}
    probe = spec.Metric("probe_ms", "ms", "lower", 0.10)
    assert verdict(probe, [1.0] * 4, [1.2] * 4)[0] == "worse"
    assert verdict(probe, [1.0, 1.0, 1.01, 1.01], [0.9] * 4)[0] == "better"
    assert verdict(probe, [1.0, 0.8, 1.2, 1.4], [1.05] * 4)[0] == "unresolved"
    SCRATCH.mkdir(exist_ok=True)
    path = SCRATCH / f"selftest-{os.getpid()}.json"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(one_set, fh)
        assert compare(str(path), str(path)) == 0
    finally:
        path.unlink(missing_ok=True)
        if not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    assert git_status() == before, "the self-test changed `git status --porcelain`"
    print(f"selftest ok in {time.monotonic() - start:.1f} s")
    return 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=list(spec.WORKLOADS),
                   help="run one workload and end with the driver's JSON line")
    p.add_argument("--seed", type=int, default=0, help="inputs derive from it")
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                   help="seconds an untraced run measures (scales the round counts)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: the per-layer ledger from a traced run")
    p.add_argument("--out", help="also write the full record (samples, host) here")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args(argv)
    common.add_src_to_path()  # exits where there is no program to measure
    if args.compare:
        return compare(*args.compare)
    common.pin_to_one_cpu()
    if args.selftest:
        return selftest()
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace), args.out)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_metrics(args.workload, result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"schema": 1, "host": host_block(), "seed": args.seed,
                       "seconds": args.seconds,
                       "workloads": {args.workload: result}}, fh, indent=1)
    print(driver_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.exit(f"bench: {exc}")
