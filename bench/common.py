"""Helpers shared by the orchestrator (run.py) and its child processes."""

from __future__ import annotations

import argparse
import bisect
import json
import os
import pickle
import resource
import sys
import time
import zlib
from pathlib import Path

import numpy as np

import spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def add_src_to_path() -> None:
    """Make ``import repro`` find the checkout's source (never an
    installed copy); exit non-zero where there is no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))


def child_parser(description: str) -> argparse.ArgumentParser:
    """Arguments every child process takes from run.py."""
    p = argparse.ArgumentParser(description=description)
    p.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--toy", type=int, default=0)
    p.add_argument("--traced", type=int, default=0)
    p.add_argument("--cpus", default="",
                   help="the CPUs run.py could use before it pinned itself, comma-separated")
    p.add_argument("--spawned", type=float, default=0.0,
                   help="run.py's time.perf_counter() when it spawned this child")
    p.add_argument("--out", required=True)
    return p


def workload_from(args) -> spec.Workload:
    w = spec.WORKLOADS[args.workload]
    return spec.toy(w) if args.toy else w


def write_json(path: str, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def pct(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def median(values) -> float:
    return pct(values, 0.5)


def tail(values) -> tuple[float, float]:
    """p90 when at least ten samples lie beyond it, else the median:
    ``(quantile, value)``.  (p99 of a 2 ms request on a shared 2-core
    host measures the host's jitter, so it is reported ungated.)"""
    if len(values) * 0.10 >= 10:
        return 0.90, pct(values, 0.90)
    return 0.5, median(values)


def pin_to_one_cpu() -> None:
    """Restrict this process, and every child it starts, to one CPU (the
    highest-numbered it may use; interrupts tend to land on CPU 0)."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def steal_seconds() -> float:
    """Seconds the hypervisor ran someone else while the CPU this process
    is pinned to had work (``steal`` of its /proc/stat line; 0 on bare
    metal or when the hypervisor does not report it)."""
    cpu = f"cpu{max(os.sched_getaffinity(0))}"
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if fields[0] == cpu:
                    return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return 0.0


class SpeedSampler:
    """How fast the pinned CPU is, sampled while the program under test
    runs on it.

    A sample is the CPU time (``thread_time``: waiting for the CPU does
    not count) of a fixed chunk of work: a pure-Python loop, then 32 KB
    buffers pickled, copied and checksummed — interpreter speed and memory
    speed, what the program spends its time on.  (Of four candidate chunks
    this pair tracked every workload best; small NumPy calls tracked the
    service worst.)  On a shared host that time moves by a factor of two
    within seconds, on both CPUs at once, with no steal reported; the
    program slows by the same factor.  ``rel`` turns the samples into the
    CPU's speed over an interval relative to the reference host, so
    ``wall * rel`` is what the interval would have taken there.
    """

    def __init__(self) -> None:
        self._blob = np.linspace(0.0, 1.0, 4096)  # 32 KB
        self.times: list[float] = []  # perf_counter at each sample
        self._cum = [0.0]  # running sum of 1 / chunk seconds

    def sample(self) -> None:
        blob, total, kept = self._blob, 0, []
        start = time.thread_time()
        for i in range(1500):
            total += i * i % 7
            kept.append(total)
        for _ in range(4):
            zlib.crc32(pickle.loads(pickle.dumps(blob)).tobytes())
        chunk = time.thread_time() - start
        self.times.append(time.perf_counter())
        self._cum.append(self._cum[-1] + 1.0 / chunk)

    def rel(self, start: float, end: float) -> float:
        """Mean speed over ``[start, end]`` (``perf_counter`` values of
        any process), padded so that short intervals see ~20 samples."""
        lo = bisect.bisect_left(self.times, start - spec.SPEED_PAD_S)
        hi = bisect.bisect_right(self.times, end + spec.SPEED_PAD_S)
        if hi - lo < 3:  # the sampler was kept off the CPU: its nearest samples
            lo, hi = max(0, lo - 2), min(len(self.times), hi + 2)
        if hi <= lo:
            return 1.0  # nothing was sampled (a run that started no child)
        return spec.REF_CHUNK_S * (self._cum[hi] - self._cum[lo]) / (hi - lo)


def round_modes(rounds: int, traced: bool) -> list[bool]:
    """Which timed rounds run with the tracer installed.  A traced run
    alternates untraced and traced rounds in one life of the program, so
    the two walls it compares differ by the tracer alone."""
    return [False, True] * rounds if traced else [False] * rounds


def latency_block(seconds: list[float]) -> dict:
    """Percentiles of operation latencies, as every child reports them."""
    seconds = seconds or [0.0]
    tail_q, tail_s = tail(seconds)
    return {
        "samples": len(seconds),
        "p50_ms": 1e3 * median(seconds),
        "tail_q": tail_q,
        "tail_ms": 1e3 * tail_s,
        "p99_ms": 1e3 * pct(seconds, 0.99),
    }


def rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def child_pids(pid: int) -> list[int]:
    """Live direct children of ``pid`` (Linux /proc scan), not counting
    the interpreter's own shared-memory resource tracker, which by design
    lives until this process exits."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                stat = fh.read()
        except OSError:
            continue
        # "pid (comm) state ppid ..." — comm may contain spaces
        fields = stat[stat.rfind(")") + 2 :].split()
        if fields[0] == "Z" or int(fields[1]) != pid:
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                if b"multiprocessing.resource_tracker" in fh.read():
                    continue
        except OSError:
            continue
        out.append(int(entry))
    return out


def leaks(*paths: str) -> list[str]:
    """What this process left behind: children and files.  (run.py looks
    at /dev/shm itself, once the whole process tree is gone.)"""
    found = [f"child pid {p}" for p in child_pids(os.getpid())]
    found += [f"file {p}" for p in paths if os.path.exists(p)]
    return found
