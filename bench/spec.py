"""The benchmark's definitions: workloads, metrics, bounds.

Pure data — importing this module imports nothing of the program under
test.  ``BENCHMARK.json`` at the repo root repeats the workload names and
metric tables for the driver; ``run.py --selftest`` fails if the two
disagree, so this file is the one to edit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: seconds one run measures on the reference host; ``--seconds`` scales
#: the fixed round counts below proportionally (never under MIN_ROUNDS
#: timed rounds in a run).
RUN_SECONDS = 10
MIN_ROUNDS = 5

#: Everything the benchmark times runs on ONE CPU, next to a speed sampler
#: (README.md, "Measuring on a shared VM").  The sampler times a fixed
#: chunk of work every SAMPLE_PERIOD_S; a timed interval is scaled by the
#: CPU's speed over exactly that interval (padded by SPEED_PAD_S on both
#: sides), relative to REF_CHUNK_S: the chunk's time on the reference host
#: when nothing disturbs it.
SAMPLE_PERIOD_S = 0.010
SPEED_PAD_S = 0.100
REF_CHUNK_S = 0.00026

#: the engine every workload runs on: sized for the 2-core host
EXECUTORS = 2
CORES_PER_EXECUTOR = 1
CLIENTS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "engine" | "service"
    problem: str  # "apsp" | "ge"
    n: int
    r: int
    strategy: str
    backend: str
    lives: int  # an untraced run starts the program this many times ...
    rounds: int  # ... and times this many rounds in each life, at RUN_SECONDS
    traced_rounds: int  # a traced run times this many untraced + as many traced rounds
    why: str
    # service workloads only: a round is CLIENTS x per_client requests
    per_client: int = 0
    warm_per_client: int = 0  # the (shorter) warm-up round
    fingerprints: int = 0  # >0: requests draw from this many; 0: all distinct


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fw_fine_im", "engine", "apsp", 192, 24, "im", "threads", 2, 3, 3,
            "dispatch-bound: ~970 tasks and 44 MB of combineByKey shuffle for "
            "7 M cell updates, so scheduler and shuffle do the work",
        ),
        Workload(
            "fw_coarse_im", "engine", "apsp", 768, 8, "im", "threads", 2, 3, 3,
            "kernel-bound and the memory workload: 328 tasks, 453 M cell "
            "updates on 96x96 tiles; a shuffle change must not move it",
        ),
        Workload(
            "ge_fine_cb", "engine", "ge", 256, 32, "cb", "threads", 2, 4, 3,
            "same task-launch load as fw_fine_im through collect + "
            "SharedStorage (64 jobs, a third of the shuffle bytes), real kernels",
        ),
        Workload(
            "fw_mid_procs", "engine", "apsp", 192, 12, "im", "processes", 2, 3, 3,
            "only workload through backend/serialize/supervisor: worker spawn, "
            "kernel offload IPC, shared memory; context start/stop is timed",
        ),
        Workload(
            "svc_hits", "service", "apsp", 128, 8, "im", "threads", 2, 3, 2,
            "request plane alone: 16 pre-warmed fingerprints, every timed "
            "request a cache hit, zero engine passes",
            per_client=400, warm_per_client=60, fingerprints=16,
        ),
        Workload(
            "svc_misses", "service", "apsp", 64, 4, "im", "threads", 2, 3, 2,
            "write side of the request plane: every request a distinct "
            "fingerprint, so WAL admit, queue, engine pass, spool and settle",
            per_client=32, warm_per_client=4, fingerprints=0,
        ),
    )
}


def toy(w: Workload) -> Workload:
    """The same workload at self-test scale (n=32, one round)."""
    return replace(
        w, n=32, r=4, lives=1, rounds=1, traced_rounds=1,
        per_client=4 if w.kind == "service" else 0,
        warm_per_client=1 if w.kind == "service" else 0,
        fingerprints=min(w.fingerprints, 2),
    )


def rounds_per_life(w: Workload, seconds: float) -> int:
    """Timed rounds in each life of an untraced run: fixed per workload,
    scaled by ``--seconds`` so the count never depends on host speed."""
    per_life = max(1, round(w.rounds * seconds / RUN_SECONDS))
    return max(per_life, -(-MIN_ROUNDS // w.lives))


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float | None = None  # end-to-end only


#: what a user of the system sees.  An *operation* is one solve (engine
#: workloads: context start + run_gep + stop) or one request (service).
#: The timing bounds are 25 %, not the 10 % ISSUE 12 asked for: on the
#: reference host the quartile spread of unchanged code over ten seeds is
#: 5-16 % (baseline/README.md), so a 10 % bound would reject a no-op.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("op_latency_p50_ms", "ms", "lower", 0.25),
    Metric("op_latency_tail_ms", "ms", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

#: span name -> reports self_s (it has child spans on some workload)
SPANS: dict[str, bool] = {
    "core.solve": True,
    "scheduler.run_job": True,
    "executors.run_tasks": True,
    "rdd.collect": True,
    "shuffle.write": True,
    "shuffle.fetch": False,
    "storage.put": False,
    "storage.get": False,
    "kernels.run": False,
    "backend.run_kernel": False,
    "serialize.pack": False,
    "durable.append": False,
    "durable.put": False,
    "service.solve": True,
    "service.submit": True,
    "service.cache_get": False,
    "service.cache_put": False,
    "service.journal_admit": True,
    "service.journal_settle": True,
    "service.engine_pass": True,
    "service.send_request": False,
}


def _per_layer() -> tuple[Metric, ...]:
    out: list[Metric] = []
    for span, has_children in SPANS.items():
        out.append(Metric(f"{span}.calls", "count", "lower"))
        out.append(Metric(f"{span}.busy_s", "s", "lower"))
        if has_children:
            out.append(Metric(f"{span}.self_s", "s", "lower"))
    out += [
        Metric("executors.task_wait_s", "s", "lower"),
        Metric("executors.task_run_s", "s", "lower"),
        Metric("executors.task_self_s", "s", "lower"),
        Metric("kernels.cell_updates", "count", "lower"),
        Metric("kernels.updates_per_s", "1/s", "higher"),
        # counts read from the program's own report; must repeat exactly
        Metric("scheduler.jobs", "count", "lower"),
        Metric("scheduler.stages", "count", "lower"),
        Metric("scheduler.tasks", "count", "lower"),
        Metric("shuffle.bytes_written", "B", "lower"),
        Metric("shuffle.bytes_read", "B", "lower"),
        Metric("storage.bytes_read", "B", "lower"),
        Metric("service.engine_passes", "count", "lower"),
        Metric("service.cache_hit_ratio", "ratio", "higher"),
        # derived
        Metric("service.queue_wait_ms_p50", "ms", "lower"),
        Metric("service.transport_ms_p50", "ms", "lower"),
        Metric("service.latency_p99_ms", "ms", "lower"),
        Metric("context.start_s", "s", "lower"),
        Metric("context.stop_s", "s", "lower"),
        Metric("backend.workers_peak_rss_mb", "MB", "lower"),
        Metric("trace.overhead_share", "ratio", "lower"),
        Metric("trace.unattributed_share", "ratio", "lower"),
        # the host while the traced rounds ran, and what pinning hides
        Metric("host.speed_rel", "ratio", "higher"),
        Metric("host.all_cpus_wall_ratio", "ratio", "lower"),
        # probes of leaf functions too hot to wrap with spans
        Metric("baseline.numpy_ref_s", "s", "lower"),
        Metric("baseline.local_blocked_s", "s", "lower"),
        Metric("baseline.overhead_ratio", "ratio", "lower"),
        Metric("scheduler.task_launch_us", "us", "lower"),
        Metric("semiring.mul_us", "us", "lower"),
        Metric("semiring.guard_ratio", "ratio", "lower"),
        Metric("util.sizeof_block_us", "us", "lower"),
        Metric("durable.fsync_append_ms", "ms", "lower"),
    ]
    return tuple(out)


PER_LAYER: tuple[Metric, ...] = _per_layer()

#: counts that must be identical in every round of a run (and every run)
EXACT_COUNTS = (
    "scheduler.jobs",
    "scheduler.stages",
    "scheduler.tasks",
    "shuffle.bytes_written",
    "shuffle.bytes_read",
    "storage.bytes_read",
    "service.engine_passes",
)


def benchmark_json() -> dict:
    """What ``BENCHMARK.json`` must say (the driver's view of this file)."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
