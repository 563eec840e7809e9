"""`make bench`: A/B the execution backends on a pinned FW-APSP solve.

Runs the same seeded workload — Floyd-Warshall APSP on an ``--grid`` x
``--grid`` tile grid (the acceptance configuration is 8x8 over a
1024^2 table) — once per backend, and writes ``BENCH_engine.json``
with wall-clock, shuffle-byte and shared-memory accounting per backend.

The wall-clock *speedup* claim only applies on multicore hosts; the
report records ``cpu_count`` and sets ``speedup_claim_applicable``
accordingly rather than pretending a 1-core container can demonstrate
parallel kernel execution.

Usage::

    PYTHONPATH=src python benchmarks/bench_driver.py            # full
    PYTHONPATH=src python benchmarks/bench_driver.py --quick    # CI scale
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.core.dpspark import GepSparkSolver, make_kernel
from repro.core.gep import FloydWarshallGep
from repro.sparkle import SparkleContext
from repro.workloads import random_digraph_weights

DEFAULT_N = 1024
DEFAULT_GRID = 8
DEFAULT_SEED = 42


def run_once(
    backend: str,
    table: np.ndarray,
    r: int,
    strategy: str,
    heartbeat_interval: float | None = None,
):
    ctx_kw = {}
    if heartbeat_interval is not None:
        ctx_kw["heartbeat_interval"] = heartbeat_interval
    with SparkleContext(
        num_executors=4,
        cores_per_executor=2,
        backend=backend,
        **ctx_kw,
    ) as sc:
        spec = FloydWarshallGep()
        solver = GepSparkSolver(
            spec,
            sc,
            r=r,
            kernel=make_kernel(spec, "iterative"),
            strategy=strategy,
        )
        t0 = time.perf_counter()
        out, report = solver.solve(table)
        wall = time.perf_counter() - t0
        m = report.engine_metrics
        return out, {
            "backend": backend,
            "wall_seconds": round(wall, 4),
            "jobs": len(m.jobs),
            "stages": m.total_stages,
            "tasks": m.total_tasks,
            "tasks_per_solve": m.total_tasks,
            "dispatch_round_trips": m.dispatch_round_trips,
            "shuffle_total_bytes_written": sc._shuffle_manager.total_bytes_written,
            "kernel_offloads": m.kernel_offloads,
            "shm_segments_created": m.shm_segments_created,
            "shm_segments_freed": m.shm_segments_freed,
            "shm_bytes_shared": m.shm_bytes_shared,
        }


def run_service_bench(r: int, strategy: str, *, clients: int = 8,
                      requests_per_client: int = 3, n: int = 128):
    """Throughput probe of the request plane (``repro serve``).

    Storms the service with concurrent clients alternating between two
    request fingerprints, so the record prices exactly what the service
    adds over raw solves: single-flight dedup, the checksummed result
    cache, and admission control.  Host-independent — the counters are
    about request-plane behaviour, not kernel parallelism.
    """
    from repro.service import ServiceConfig, SolverService, run_request_storm
    from repro.sparkle.requests import SolveRequest

    spec = FloydWarshallGep()
    kernel = make_kernel(spec, "iterative")
    tables = {
        seed: random_digraph_weights(n, 0.3, seed=seed).astype(spec.dtype)
        for seed in (0, 1)
    }
    with SparkleContext(num_executors=4, cores_per_executor=2) as sc:
        service = SolverService(sc, config=ServiceConfig(max_queue_depth=8))

        def make_request(client, seq):
            return SolveRequest(
                spec=spec,
                table=tables[seq % 2],
                r=min(r, n),
                kernel=kernel,
                strategy=strategy,
                client=f"bench-{client}",
            )

        t0 = time.perf_counter()
        outcomes = run_request_storm(
            service,
            make_request,
            clients=clients,
            requests_per_client=requests_per_client,
            timeout=600.0,
        )
        wall = time.perf_counter() - t0
        service.stop()
        summary = service.metrics.summary()
        completed = sum(1 for o in outcomes if o["ok"])
        return {
            "clients": clients,
            "requests": len(outcomes),
            "completed": completed,
            "wall_seconds": round(wall, 4),
            "requests_per_second": round(len(outcomes) / wall, 2) if wall else None,
            "cache_hit_rate": summary["cache_hit_rate"],
            "shed_count": summary["requests_shed"],
            "single_flight_coalesced": summary["single_flight_coalesced"],
            "engine_passes": summary["engine_passes"],
            "deadline_cancelled": summary["deadline_cancelled"],
        }


def run_fairness_bench(r: int, strategy: str, *, n: int = 128,
                       requests_per_tenant: int = 4,
                       chaos: str = "seed=7,noisy_neighbor=1.0"):
    """Tenant-isolation probe: hog vs victim under the seeded storm.

    Equal weights (the DESIGN.md §18 acceptance configuration): the hog
    floods seeded bursts of extra solves while the victim submits its
    scheduled share.  The record prices fairness directly — the victim's
    share of engine passes inside the contention window (up to its last
    settled pass), which weighted deficit-round-robin must keep >= 0.4
    — plus the hog:victim throughput ratio and whatever brownout
    transitions the pressure actually drove.  Host-independent.
    """
    from repro.service import (
        ServiceConfig,
        SolverService,
        TenantPolicy,
        run_noisy_neighbor_storm,
    )
    from repro.sparkle import FaultPlan
    from repro.sparkle.requests import SolveRequest

    spec = FloydWarshallGep()
    kernel = make_kernel(spec, "iterative")
    plan = FaultPlan.from_string(chaos)
    base_seed = {"hog": 1000, "victim": 2000}
    with SparkleContext(num_executors=4, cores_per_executor=2) as sc:
        service = SolverService(
            sc,
            config=ServiceConfig(
                max_queue_depth=32,
                tenant_policies={
                    "hog": TenantPolicy(weight=1),
                    "victim": TenantPolicy(weight=1),
                },
            ),
        )
        pass_order = []
        original = service._solve
        service._solve = lambda req, offload: (
            pass_order.append(req.tenant),
            original(req, offload),
        )[1]

        def make_request(tenant, seq):
            return SolveRequest(
                spec=spec,
                table=random_digraph_weights(
                    n, 0.3, seed=base_seed[tenant] + seq
                ).astype(spec.dtype),
                r=min(r, n),
                kernel=kernel,
                strategy=strategy,
                tenant=tenant,
            )

        t0 = time.perf_counter()
        outcomes = run_noisy_neighbor_storm(
            service,
            make_request,
            requests_per_tenant=requests_per_tenant,
            plan=plan,
            timeout=600.0,
        )
        wall = time.perf_counter() - t0
        service.stop()
        per_tenant = service.metrics.summary()["per_tenant"]
        transitions = service.metrics.drain_brownout_transitions()
    victim_rows = outcomes["victim"]
    hog_rows = outcomes["hog"]
    victim_idx = [i for i, t in enumerate(pass_order) if t == "victim"]
    window = pass_order[: victim_idx[-1] + 1] if victim_idx else []
    victim_share = (
        round(window.count("victim") / len(window), 4) if window else None
    )
    hog_passes = per_tenant.get("hog", {}).get("engine_passes", 0)
    victim_passes = per_tenant.get("victim", {}).get("engine_passes", 0)
    return {
        "chaos": chaos,
        "weights": {"hog": 1, "victim": 1},
        "requests_per_tenant": requests_per_tenant,
        "hog_bursts": [row["burst"] for row in hog_rows],
        "wall_seconds": round(wall, 4),
        "hog_engine_passes": hog_passes,
        "victim_engine_passes": victim_passes,
        "hog_victim_throughput_ratio": (
            round(hog_passes / victim_passes, 4) if victim_passes else None
        ),
        "victim_pass_share_in_window": victim_share,
        "victim_completed": sum(1 for row in victim_rows if row.get("ok")),
        "victim_sheds": per_tenant.get("victim", {}).get("sheds", 0),
        "brownout_transitions": transitions,
    }


def run_resume_bench(r: int, strategy: str, *, requests: int = 8,
                     n: int = 128):
    """Recovery-cost probe of the request journal (``serve --resume``).

    Simulates a crashed server: a :class:`RequestJournal` seeded with
    ``requests`` in-flight wire admissions (two distinct fingerprints,
    so dedup does its share), then a cold service ``resume()``-ing from
    it.  The record prices the whole recovery path — WAL replay through
    normal admission, fingerprint coalescing, engine passes for the
    deduped work, durable settles — as wall-clock from first replay to
    last settlement.
    """
    import shutil
    import tempfile

    from repro.service import (
        RequestJournal,
        ServiceConfig,
        SolverService,
        _build_request,
    )

    root = tempfile.mkdtemp(prefix="repro-resume-bench-")
    try:
        journal = RequestJournal(root)
        for i in range(requests):
            payload = {
                "problem": "apsp",
                "n": n,
                "seed": i % 2,
                "density": 0.3,
                "r": min(r, n),
                "strategy": strategy,
                "client": f"bench-{i}",
            }
            fingerprint = _build_request(payload).fingerprint()
            journal.admit(f"bench-k{i}", fingerprint, payload)
        with SparkleContext(num_executors=4, cores_per_executor=2) as sc:
            service = SolverService(
                sc,
                config=ServiceConfig(max_queue_depth=max(8, requests)),
                journal=journal,
            )
            t0 = time.perf_counter()
            tickets = service.resume()
            for ticket in tickets:
                ticket.result(600)
            wall = time.perf_counter() - t0
            service.stop()
            summary = service.metrics.summary()
        return {
            "replayed_requests": summary["journal_replayed"],
            "rehydrated_results": summary["results_rehydrated"],
            "recovery_wall_seconds": round(wall, 4),
            "engine_passes": summary["engine_passes"],
            "journal_settles": summary["journal_settles"],
            "journal_records_compacted": summary["journal_records_compacted"],
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=DEFAULT_N, help="table size")
    ap.add_argument(
        "--grid", type=int, default=DEFAULT_GRID, help="tiles per side"
    )
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--strategy", default="im", choices=["im", "cb", "bcast"])
    ap.add_argument(
        "--quick",
        action="store_true",
        help="CI scale (256^2 on the same 8x8 grid)",
    )
    ap.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_engine.json"),
    )
    args = ap.parse_args(argv)
    n = 256 if args.quick else args.n
    if n % args.grid:
        ap.error(f"--n {n} must be divisible by --grid {args.grid}")
    r = n // args.grid

    print(f"bench: FW-APSP n={n} grid={args.grid}x{args.grid} (r={r}) "
          f"strategy={args.strategy} seed={args.seed}")
    table = random_digraph_weights(n, 0.3, seed=args.seed)
    runs = {}
    baseline = None
    for label in ("threads", "processes"):
        out, rec = run_once(label, table.copy(), r, args.strategy)
        if baseline is None:
            baseline = out
        elif not np.array_equal(baseline, out):
            raise SystemExit(f"{label} output diverges — refusing to report")
        runs[label] = rec
        print(f"  {label:15s} wall={rec['wall_seconds']:8.3f}s "
              f"shuffle={rec['shuffle_total_bytes_written']:>12,d}B "
              f"offloads={rec['kernel_offloads']} "
              f"round_trips={rec['dispatch_round_trips']}")

    # Supervision overhead: the same process-backend workload with the
    # heartbeat/watchdog machinery disabled.  The delta prices the
    # liveness layer (shared-memory beat writes + driver-side scans);
    # it should be noise against the kernel math.
    out, unsup = run_once(
        "processes", table.copy(), r, args.strategy, heartbeat_interval=0.0
    )
    if not np.array_equal(baseline, out):
        raise SystemExit("unsupervised run diverges — refusing to report")
    print(f"  {'no-heartbeat':12s} wall={unsup['wall_seconds']:8.3f}s "
          f"(supervision off)")

    # The request plane: concurrent clients through one shared context.
    service_rec = run_service_bench(r, args.strategy)
    print(f"  {'service':15s} {service_rec['requests_per_second']}req/s "
          f"hit_rate={service_rec['cache_hit_rate']} "
          f"coalesced={service_rec['single_flight_coalesced']} "
          f"shed={service_rec['shed_count']}")

    # Tenant isolation: the noisy-neighbor fairness storm.
    fairness_rec = run_fairness_bench(r, args.strategy)
    print(f"  {'fairness':15s} "
          f"victim_share={fairness_rec['victim_pass_share_in_window']} "
          f"hog:victim={fairness_rec['hog_victim_throughput_ratio']} "
          f"victim_sheds={fairness_rec['victim_sheds']}")

    # Hot-restart recovery: journal replay cost after a simulated crash.
    resume_rec = run_resume_bench(r, args.strategy)
    print(f"  {'service-resume':15s} "
          f"replayed={resume_rec['replayed_requests']} "
          f"recovery={resume_rec['recovery_wall_seconds']}s "
          f"engine_passes={resume_rec['engine_passes']}")

    cpus = os.cpu_count() or 1
    t, p = runs["threads"], runs["processes"]
    report = {
        "workload": {
            "spec": "fw-apsp",
            "n": n,
            "grid": args.grid,
            "r": r,
            "strategy": args.strategy,
            "seed": args.seed,
        },
        "host": {
            "cpu_count": cpus,
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "backends": runs,
        "derived": {
            "bit_identical": True,
            "speedup_processes_vs_threads": round(
                t["wall_seconds"] / p["wall_seconds"], 4
            ),
            # parallel-kernel wall-clock wins need real cores; recorded
            # honestly instead of asserted on undersized hosts
            "speedup_claim_applicable": cpus >= 4,
        },
        "service": service_rec,
        "fairness": fairness_rec,
        "service_resume": resume_rec,
        "supervision": {
            "heartbeat_interval": 0.25,
            "supervised_wall_seconds": p["wall_seconds"],
            "unsupervised_wall_seconds": unsup["wall_seconds"],
            "overhead_seconds": round(
                p["wall_seconds"] - unsup["wall_seconds"], 4
            ),
            "overhead_fraction": round(
                p["wall_seconds"] / unsup["wall_seconds"] - 1.0, 4
            ),
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if cpus >= 4 and p["wall_seconds"] >= t["wall_seconds"]:
        print("WARNING: process backend did not win wall-clock on a "
              f"{cpus}-core host")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
