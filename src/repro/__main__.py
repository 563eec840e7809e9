"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``solve``
    Run one of the DP solvers on a generated (or ``.npy``) input through
    the chosen engine and print a result summary.  With
    ``--checkpoint-dir`` the spark engine journals every completed outer
    iteration to durable storage; a killed run restarts from the last
    journaled iteration with ``--resume`` and produces bit-identical
    output.
``fsck``
    Verify the integrity of a checkpoint directory (block checksums,
    manifest consistency, journal validity) and report any damage.
``memstat`` / ``workers``
    Print one counter group of a solve report JSON written with
    ``solve --report``: the memory governor's (spill volume, pressure
    transitions, admission waits, degradations) or worker supervision's
    (crashes, respawns, missed heartbeats, deadlines, poison
    quarantines, backend degradations).
``tune``
    Print the analytical tuning advice for a problem on a cluster preset.
``experiments``
    Regenerate the paper's tables/figures (same as
    ``python -m repro.experiments``).
``info``
    Version, available semirings, cluster presets.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _load_or_generate(args) -> np.ndarray:
    if args.input:
        return np.load(args.input)
    from repro.workloads import make_problem

    return make_problem(args.problem, args.n, args.seed, args.density)[1]


#: ``solve`` flags only the spark engine reads, by argparse dest (the
#: flag is the dest with dashes); another engine refuses them
_SPARK_FLAGS = (
    "executors", "cores", "backend", "checkpoint_dir", "resume",
    "max_iterations", "memory_budget", "spill_dir", "degrade_on_pressure",
    "heartbeat_interval", "task_deadline", "max_task_failures", "chaos",
)


def _given(**kw) -> dict:
    """The keyword arguments whose flag was given: an unset flag passes
    nothing, so the default is its owner's."""
    return {k: v for k, v in kw.items() if v is not None}


def _cmd_solve(args) -> int:
    from repro.core import floyd_warshall, forward_eliminate, transitive_closure
    from repro.sparkle import (
        FaultPlan, ResumeMismatchError, SparkleContext, SupervisionConfig,
    )

    # The one check of the CLI's own: every value is checked by the
    # library code that reads it (a ValueError below exits 2).
    if args.engine != "spark":
        for dest in _SPARK_FLAGS:
            if getattr(args, dest) not in (None, False):
                flag = "--" + dest.replace("_", "-")
                print(f"{flag} requires --engine spark", file=sys.stderr)
                return 2
    fault_plan = None
    if args.chaos is not None:
        try:
            fault_plan = FaultPlan.from_string(args.chaos)
        except ValueError as exc:
            print(f"invalid --chaos spec: {exc}", file=sys.stderr)
            return 2

    table = _load_or_generate(args)
    kw = dict(
        engine=args.engine,
        r=args.r,
        kernel=args.kernel,
        r_shared=args.r_shared,
        omp_threads=args.omp,
        strategy=args.strategy,
    )
    ctx = None
    try:
        try:
            if args.engine == "spark":
                supervision = SupervisionConfig(**_given(
                    heartbeat_interval=args.heartbeat_interval,
                    task_deadline=args.task_deadline,
                    max_task_failures=args.max_task_failures,
                ))
                ctx = SparkleContext(
                    fault_plan=fault_plan,
                    supervision=supervision,
                    **_given(
                        num_executors=args.executors,
                        cores_per_executor=args.cores,
                        backend=args.backend,
                        checkpoint_dir=args.checkpoint_dir,
                        memory_budget_bytes=args.memory_budget,
                        spill_dir=args.spill_dir,
                    ),
                )
                kw.update(
                    sc=ctx,
                    resume=args.resume,
                    max_iterations=args.max_iterations,
                    degrade_on_pressure=args.degrade_on_pressure,
                )
            if args.problem == "apsp":
                out, report = floyd_warshall(table, return_report=True, **kw)
            elif args.problem == "tc":
                out, report = transitive_closure(table, return_report=True, **kw)
            else:
                out, _, report = forward_eliminate(
                    table, None, return_report=True, **kw
                )
        except ResumeMismatchError as exc:
            print(f"cannot resume: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"solve: {exc}", file=sys.stderr)
            return 2
        partial = report is not None and report.extras.get("partial")
        if partial:
            print(
                f"partial solve: {partial['iterations_completed']} of "
                f"{partial['grid_iterations']} outer iterations journaled; "
                f"finish with --resume --checkpoint-dir {args.checkpoint_dir}"
            )
        elif args.problem == "apsp":
            finite = out[np.isfinite(out)]
            print(f"APSP solved: n={out.shape[0]}, diameter={finite.max():.4g}, "
                  f"mean distance={finite.mean():.4g}")
        elif args.problem == "tc":
            print(f"closure solved: n={out.shape[0]}, "
                  f"reachable pairs={int(out.sum())}")
        else:
            print(f"GE eliminated: n={out.shape[0]}, "
                  f"|det|={abs(float(np.prod(np.diag(out)))):.4g}")
        if report is not None and report.engine_metrics is not None:
            metrics = report.engine_metrics
            print("engine:", metrics.summary("plan"))
            if args.checkpoint_dir:
                print("durability:", metrics.summary("durability"))
                if report.extras.get("resumed_from_iteration") is not None:
                    print(
                        "resumed after journaled iteration "
                        f"{report.extras['resumed_from_iteration']}"
                    )
            if fault_plan is not None:
                print("chaos:", fault_plan.describe(),
                      "| injected:", fault_plan.fired())
                print("recovery:", metrics.summary("recovery"))
            if args.backend == "processes":
                print("data plane:", metrics.summary("data_plane"))
                print("supervision:", metrics.summary("supervision"))
                for d in report.extras.get("backend_degradations") or []:
                    print(
                        f"degraded backend {d['from']}->{d['to']} "
                        f"({d['quarantined_tasks']} poison task(s) "
                        f"quarantined)"
                    )
            if ctx.memory_manager.bounded:
                print("memory:", metrics.summary("memory"))
                if report.extras.get("degraded"):
                    d = report.extras["degraded"]
                    print(
                        f"degraded {d['from']}->{d['to']} at outer "
                        f"iteration {d['at_iteration']} (critical memory "
                        f"pressure)"
                    )
        if args.report and report is not None:
            import json

            print("kernel fold:", report.kernel.get("fold"))
            with open(args.report, "w", encoding="utf-8") as fh:
                json.dump(report.summary(), fh, indent=2, default=str)
            print(f"report written to {args.report}")
        if args.output:
            if partial:
                print(f"partial result: not writing {args.output}")
            else:
                np.save(args.output, out)
                print(f"result written to {args.output}")
    finally:
        if ctx is not None:
            ctx.stop()
    return 0


def _cmd_fsck(args) -> int:
    import os

    from repro.sparkle import DurableBlockStore, SolveJournal
    from repro.sparkle.errors import CorruptBlockError, JournalError

    if not os.path.isdir(args.dir):
        print(f"no such checkpoint directory: {args.dir}", file=sys.stderr)
        return 2
    try:
        store = DurableBlockStore(args.dir)
    except (CorruptBlockError, JournalError) as exc:
        print(f"manifest unusable: {exc}", file=sys.stderr)
        return 1
    report = store.fsck()
    journal = SolveJournal(args.dir).verify()
    print(
        f"fsck {args.dir}: {report.blocks_ok}/{report.blocks_total} blocks ok, "
        f"{report.bytes_verified} B verified"
    )
    for key in report.corrupt:
        print(f"  CORRUPT block {key}")
    for key in report.missing:
        print(f"  MISSING block {key}")
    for name in report.orphans:
        print(f"  orphan file {name} (uncommitted write; harmless)")
    if journal["exists"]:
        status = "complete" if journal["complete"] else (
            f"in progress through iteration {journal['last_iteration']}"
        )
        print(
            f"journal: {journal['records_valid']}/{journal['records_total']} "
            f"records valid, {status}"
        )
        if journal["torn_tail"]:
            print("  torn tail: trailing record(s) invalid, "
                  "will be truncated on resume")
    else:
        print("journal: none")
    clean = report.clean and not journal["torn_tail"]
    print("clean" if clean else "DAMAGED (solves recover by recomputation)")
    return 0 if clean else 1


#: report subcommand -> (counter group it prints, how the error names it)
_REPORT_GROUPS = {
    "memstat": ("memory", "memory-governor"),
    "workers": ("supervision", "worker-supervision"),
}


def _cmd_report_group(args) -> int:
    """``memstat`` / ``workers``: one counter group of a solve report."""
    import json
    import os

    from repro.sparkle import EngineMetrics

    group, noun = _REPORT_GROUPS[args.command]
    if not os.path.isfile(args.report):
        print(f"no such report file: {args.report}", file=sys.stderr)
        return 2
    try:
        with open(args.report, encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read report: {exc}", file=sys.stderr)
        return 2
    counters = [c for c in EngineMetrics.schema(group) if c.key in summary]
    if not counters:
        print(
            f"report has no {noun} counters (was it written by "
            "'solve --report' on a spark run?)",
            file=sys.stderr,
        )
        return 2
    print(
        f"{args.command} {args.report}: {summary.get('spec', '?')} "
        f"strategy={summary.get('strategy', '?')} n={summary.get('n', '?')}"
    )
    traces = []
    for c in counters:
        value = summary[c.key]
        if isinstance(value, list):
            traces.append((c.key, value))  # count + entries, after the scalars
        else:
            print(f"  {c.key:26s} {value}{' ' + c.unit if c.unit else ''}")
    for key, entries in traces:
        print(f"  {key:26s} {len(entries)}")
        for entry in entries:
            print(f"    {entry}")
    extras = summary.get("extras") or {}
    if group == "memory":
        if extras.get("degraded"):
            d = extras["degraded"]
            print(
                f"  degraded: {d.get('from')}->{d.get('to')} at iteration "
                f"{d.get('at_iteration')}"
            )
        budget = extras.get("memory_budget")
        if budget:
            print(
                f"  budget: {budget.get('live_bytes')} B live of "
                f"{budget.get('budget_bytes')} B "
                f"(initial {budget.get('initial_budget_bytes')} B, "
                f"level {budget.get('level')})"
            )
    else:
        for d in extras.get("backend_degradations") or []:
            print(
                f"  degraded backend: {d.get('from')}->{d.get('to')} "
                f"({d.get('quarantined_tasks')} poison task(s))"
            )
    return 0


def _parse_tenant_policies(args):
    """Fold repeatable --tenant-* flags into TenantPolicy objects.

    Each flag names one tenant (``NAME=VALUE``); a tenant may appear in
    several flags and the pieces are merged into a single policy.
    Returns ``(policies, error_message)``.
    """
    from repro.service import TenantPolicy

    fields: dict[str, dict] = {}

    def _split(flag, raw):
        name, sep, value = raw.partition("=")
        if not sep or not name or not value:
            raise ValueError(f"{flag} expects NAME=VALUE, got {raw!r}")
        return name, value

    try:
        for raw in args.tenant_weight or []:
            name, value = _split("--tenant-weight", raw)
            fields.setdefault(name, {})["weight"] = int(value)
        for raw in args.tenant_quota or []:
            name, value = _split("--tenant-quota", raw)
            fields.setdefault(name, {})["quota_bytes"] = int(value)
        for raw in args.tenant_rate or []:
            name, value = _split("--tenant-rate", raw)
            rate, sep, burst = value.partition(":")
            spec = fields.setdefault(name, {})
            spec["rate"] = float(rate)
            if sep:
                spec["burst"] = int(burst)
        policies = {
            name: TenantPolicy(**spec) for name, spec in fields.items()
        }
    except ValueError as exc:
        return None, str(exc)
    return policies, None


def _tenant_counters(counters: dict) -> str:
    """One tenant's request-plane counters, as ``serve`` prints them at
    exit and ``request --stats`` prints them live."""
    return (
        f"requests={counters['requests']} sheds={counters['sheds']} "
        f"cache_hits={counters['cache_hits']} "
        f"passes={counters.get('engine_passes', 0)} "
        f"quota_rejections={counters.get('quota_rejections', 0)} "
        f"rate_limited={counters.get('rate_limited', 0)}"
    )


def _cmd_serve(args) -> int:
    from repro.service import (
        RequestJournal,
        ServiceConfig,
        SolverService,
        serve_forever,
    )
    from repro.sparkle import SparkleContext

    if args.resume and not args.journal_dir:
        print("--resume requires --journal-dir", file=sys.stderr)
        return 2
    policies, err = _parse_tenant_policies(args)
    if err is not None:
        print(err, file=sys.stderr)
        return 2
    try:
        config = ServiceConfig(
            tenant_policies=policies,
            brownout=not args.no_brownout,
            **_given(
                max_queue_depth=args.max_queue_depth,
                cache_entries=args.cache_entries,
                retries=args.retries,
                default_deadline=args.default_deadline,
                max_frame_bytes=args.max_frame_bytes,
            ),
        )
        sc = SparkleContext(
            **_given(
                num_executors=args.executors,
                cores_per_executor=args.cores,
                backend=args.backend,
                memory_budget_bytes=args.memory_budget,
            )
        )
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    journal = RequestJournal(args.journal_dir) if args.journal_dir else None
    service = SolverService(sc, config=config, journal=journal)
    if args.resume:
        replayed = service.resume()
        print(f"resume: rehydrated {service.metrics.results_rehydrated} "
              f"cached result(s), replaying {len(replayed)} in-flight "
              f"request(s) from the journal")
    print(f"serving solves on {args.socket} "
          f"(backend={sc.backend}, executors={sc.num_executors}, "
          f"queue<= {config.max_queue_depth}, cache {config.cache_entries} entries"
          + (f", journal {args.journal_dir}" if journal is not None else "")
          + ")")
    print("stop with Ctrl-C (drains, checkpoints the journal); query with: "
          f"python -m repro request --socket {args.socket} <problem> --n <N>")
    try:
        # serve_forever owns the drain sequence: on SIGTERM/SIGINT it
        # sheds new admissions, settles in-flight work, checkpoints the
        # journal, and unlinks the socket — all BEFORE the context
        # teardown below, so late clients fail fast on a dead address
        # instead of hanging on a half-dead service.
        serve_forever(service, args.socket, max_requests=args.max_requests)
    except KeyboardInterrupt:
        pass
    finally:
        service.stop()
        sc.stop()
        summary = service.metrics.summary()
        per_tenant = summary.pop("per_tenant", {})
        print("service counters:")
        for key, value in sorted(summary.items()):
            print(f"  {key:28s} {value}")
        if per_tenant:
            print("per-tenant:")
            for tenant, counters in sorted(per_tenant.items()):
                print(f"  {tenant:20s} {_tenant_counters(counters)}")
    return 0


def _cmd_request(args) -> int:
    from repro.service import send_request

    payload = {
        "problem": args.problem,
        "n": args.n,
        "seed": args.seed,
        "density": args.density,
        "r": args.r,
        "strategy": args.strategy,
        "deadline": args.deadline,
        "timeout": args.timeout,
        "return_result": bool(args.output),
        "tenant": args.tenant,
        "idempotency_key": args.idempotency_key,
    }
    if args.stats:
        payload = {"op": "stats"}
    try:
        reply = send_request(
            args.socket, payload, timeout=args.timeout, retries=args.retries
        )
    except OSError as exc:
        print(f"cannot reach the service at {args.socket}: {exc}", file=sys.stderr)
        return 1
    if reply.get("status") != "ok":
        exc = reply.get("error")
        retryable = "retryable" if reply.get("retryable") else "not retryable"
        print(f"error ({type(exc).__name__}, {retryable}): {exc}",
              file=sys.stderr)
        return 1
    if args.stats:
        per_tenant = reply.pop("per_tenant", {}) or {}
        ledgers = reply.pop("tenants", {}) or {}
        for key, value in sorted(reply.items()):
            if key != "status":
                print(f"{key:28s} {value}")
        for tenant, counters in sorted(per_tenant.items()):
            print(f"tenant {tenant:20s} {_tenant_counters(counters)}")
        for tenant, ledger in sorted(ledgers.items()):
            quota = ledger.get("quota_bytes")
            print(f"quota {tenant:21s} held={ledger.get('held_bytes', 0)} "
                  f"quota={'-' if quota is None else quota}")
        return 0
    if args.output:
        np.save(args.output, reply.pop("result"))
        print(f"result written to {args.output}")
    provenance = []
    if reply.get("from_cache"):
        provenance.append("cache hit")
    if reply.get("coalesced"):
        provenance.append("coalesced")
    print(f"ok fingerprint={reply['fingerprint']} "
          f"wall={reply['wall_seconds']:.3f}s"
          + (f" ({', '.join(provenance)})" if provenance else ""))
    return 0


def _cmd_tune(args) -> int:
    from repro.cluster import haswell16, laptop, skylake16
    from repro.core import tune
    from repro.workloads import PROBLEM_SPECS

    clusters = {"skylake16": skylake16, "haswell16": haswell16, "laptop": laptop}
    advice = tune(PROBLEM_SPECS[args.problem](), args.n, clusters[args.cluster]())
    print(advice.describe())
    print("\ntop alternatives:")
    for r, plan, secs in advice.ranking[1:6]:
        print(f"  {plan.label():36s} block={args.n // r:>5}  ~{secs:.0f}s")
    return 0


def _cmd_info(_args) -> int:
    import repro
    from repro.cluster import haswell16, laptop, skylake16
    from repro.semiring import available_semirings

    print(f"repro {repro.__version__}")
    print(f"semirings: {', '.join(available_semirings())}")
    for preset in (skylake16(), haswell16(), laptop()):
        print(f"cluster preset {preset.describe()}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a DP solver")
    solve.add_argument("problem", choices=("apsp", "ge", "tc"))
    solve.add_argument("--input", help=".npy input matrix (else generated)")
    solve.add_argument("--output", help="write the result as .npy")
    solve.add_argument("--n", type=int, default=128)
    solve.add_argument("--density", type=float, default=0.3)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--engine", choices=("reference", "local", "spark"),
                       default="local")
    solve.add_argument("--r", type=int, default=4)
    solve.add_argument("--kernel", choices=("iterative", "recursive"),
                       default="recursive")
    solve.add_argument("--r-shared", dest="r_shared", type=int, default=4)
    solve.add_argument("--omp", type=int, default=1)
    solve.add_argument("--strategy", choices=("im", "cb", "bcast"), default="im",
                       help="distribution strategy: im (Listing 1), cb "
                            "(Listing 2), or bcast (CB via broadcast "
                            "variables — a design-space ablation)")
    solve.add_argument("--executors", type=int)
    solve.add_argument("--cores", type=int)
    solve.add_argument(
        "--backend", choices=("threads", "processes"),
        help="spark-engine execution backend: threads (SparkleContext's "
             "default, deterministic in-process pool) or processes (one worker "
             "process per executor; kernel tile updates run on multiple "
             "cores, tiles pickled in one batch per task — bit-identical "
             "results)")
    solve.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="durable checkpoint/journal directory for the spark engine: "
             "every completed outer iteration is snapshotted (checksummed, "
             "crash-atomic) and journaled before the solve advances")
    solve.add_argument(
        "--resume", action="store_true",
        help="resume a killed solve from the --checkpoint-dir journal; "
             "bit-identical to an uninterrupted run (safe when no journal "
             "exists: starts fresh)")
    solve.add_argument(
        "--max-iterations", type=int, default=None, metavar="K",
        help="stop after K journaled outer iterations (staged long solves; "
             "finish later with --resume)")
    solve.add_argument(
        "--memory-budget", dest="memory_budget", type=int, default=None,
        metavar="BYTES",
        help="unified memory budget for the spark engine: RDD cache and "
             "shuffle staging share BYTES, overflow spills to disk and "
             "task launches queue under pressure (default: unbounded)")
    solve.add_argument(
        "--spill-dir", dest="spill_dir", metavar="DIR", default=None,
        help="spill store directory (default: <checkpoint-dir>/spill, else "
             "a temporary directory); requires --memory-budget")
    solve.add_argument(
        "--degrade-on-pressure", action="store_true",
        help="switch an IM solve to CB at the next outer-iteration boundary "
             "when memory pressure goes critical (bit-identical result); "
             "requires --memory-budget")
    solve.add_argument(
        "--heartbeat-interval", dest="heartbeat_interval", type=float,
        default=None, metavar="SECONDS",
        help="worker heartbeat period for the process backend "
             "(SupervisionConfig's default; a worker silent for 2x this is "
             "presumed hung and SIGKILLed by the driver watchdog; 0 "
             "disables heartbeats)")
    solve.add_argument(
        "--task-deadline", dest="task_deadline", type=float, default=None,
        metavar="SECONDS",
        help="wall-clock deadline per offloaded kernel call (process "
             "backend); an overrunning worker is killed and the call "
             "retried through the scheduler's attempt machinery")
    solve.add_argument(
        "--max-task-failures", dest="max_task_failures", type=int,
        default=None, metavar="N",
        help="quarantine a kernel call as poison after it kills N fresh "
             "workers (SupervisionConfig's default); the solve then "
             "finishes on the thread path, bit-identical")
    solve.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the full solve report (engine/memory/recovery counters) "
             "as JSON; inspect later with 'memstat FILE' or 'workers FILE'")
    solve.add_argument(
        "--chaos", metavar="SPEC", default=None,
        help="seeded fault injection for the spark engine: 'seed=42' (default "
             "fault mix) or e.g. 'seed=7,kill=0.1,lose=0.05,"
             "storage=0.05,overflow=0.02,torn_write=0.1,corrupt_block=0.05,"
             "mem_squeeze=0.2' "
             "(rates per site; torn_write/"
             "corrupt_block need --checkpoint-dir; mem_squeeze needs "
             "--memory-budget; worker_kill/worker_hang/worker_oom "
             "SIGKILL/SIGSTOP real worker processes and need --backend "
             "processes; add parallel=1 for concurrent chaos)")
    solve.set_defaults(func=_cmd_solve)

    fsck = sub.add_parser(
        "fsck", help="verify checkpoint-directory integrity")
    fsck.add_argument("dir", help="checkpoint directory to verify")
    fsck.set_defaults(func=_cmd_fsck)

    memstat = sub.add_parser(
        "memstat", help="print memory-governor counters from a solve report")
    memstat.add_argument("report", help="JSON file from 'solve --report'")
    memstat.set_defaults(func=_cmd_report_group)

    workers = sub.add_parser(
        "workers",
        help="print worker-supervision counters from a solve report")
    workers.add_argument("report", help="JSON file from 'solve --report'")
    workers.set_defaults(func=_cmd_report_group)

    serve = sub.add_parser(
        "serve",
        help="run the solver as a long-lived service on a Unix socket")
    serve.add_argument("--socket", default="/tmp/repro-solver.sock",
                       help="Unix socket path to listen on")
    serve.add_argument("--executors", type=int)
    serve.add_argument("--cores", type=int)
    serve.add_argument("--backend", choices=("threads", "processes"))
    serve.add_argument("--memory-budget", dest="memory_budget", type=int,
                       default=None, metavar="BYTES",
                       help="unified engine memory budget; also gates "
                            "request admission (critical pressure sheds)")
    serve.add_argument("--max-queue-depth", dest="max_queue_depth", type=int,
                       help="bounded request queue; overflow is shed with a "
                            "typed, retryable ServiceOverloadedError")
    serve.add_argument("--cache-entries", dest="cache_entries", type=int,
                       help="LRU result-cache capacity (checksummed; bytes "
                            "charged to the storage pool)")
    serve.add_argument("--retries", type=int,
                       help="engine passes retried per request after a "
                            "transient fault")
    serve.add_argument("--default-deadline", dest="default_deadline",
                       type=float, default=None, metavar="SECONDS",
                       help="deadline applied to requests that carry none")
    serve.add_argument("--journal-dir", dest="journal_dir", default=None,
                       help="directory for the durable request WAL + result "
                            "spool; enables crash recovery via --resume")
    serve.add_argument("--resume", action="store_true",
                       help="replay incomplete journaled requests and "
                            "rehydrate the result cache before serving "
                            "(requires --journal-dir)")
    serve.add_argument("--max-frame-bytes", dest="max_frame_bytes", type=int,
                       help="refuse socket frames announcing more than this "
                            "many bytes (allocation-bomb guard)")
    serve.add_argument("--max-requests", dest="max_requests", type=int,
                       default=None,
                       help="exit after N requests (tests/demos)")
    serve.add_argument("--tenant-weight", dest="tenant_weight",
                       action="append", default=None, metavar="NAME=W",
                       help="fair-share weight for a tenant in the "
                            "deficit-round-robin dispatch queue "
                            "(repeatable; default weight 1)")
    serve.add_argument("--tenant-quota", dest="tenant_quota",
                       action="append", default=None, metavar="NAME=BYTES",
                       help="byte quota for a tenant's in-flight working "
                            "set; breaches are refused with a typed, "
                            "retryable TenantQuotaExceededError "
                            "(repeatable)")
    serve.add_argument("--tenant-rate", dest="tenant_rate",
                       action="append", default=None,
                       metavar="NAME=RATE[:BURST]",
                       help="token-bucket admission rate (requests/s, "
                            "optional burst) for a tenant (repeatable)")
    serve.add_argument("--no-brownout", dest="no_brownout",
                       action="store_true",
                       help="disable the brownout degradation ladder "
                            "(degrade IM->CB -> shed lowest-weight "
                            "tenants)")
    serve.set_defaults(func=_cmd_serve)

    request = sub.add_parser(
        "request", help="send one solve request to a running 'serve'")
    request.add_argument("problem", choices=("apsp", "ge", "tc"), nargs="?",
                         default="apsp")
    request.add_argument("--socket", default="/tmp/repro-solver.sock")
    request.add_argument("--n", type=int, default=128)
    request.add_argument("--density", type=float, default=0.3)
    request.add_argument("--seed", type=int, default=0)
    request.add_argument("--r", type=int, default=4)
    request.add_argument("--strategy", choices=("im", "cb", "bcast"),
                         default="im")
    request.add_argument("--deadline", type=float, default=None,
                         metavar="SECONDS",
                         help="wall-clock budget; overruns cancel the solve "
                              "with RequestDeadlineExceeded")
    request.add_argument("--timeout", type=float, default=120.0,
                         help="client-side socket timeout")
    request.add_argument("--output", default=None,
                         help="fetch the result matrix and save as .npy")
    request.add_argument("--tenant", default=None,
                         help="accounting principal; metered per-tenant in "
                              "the service's --stats breakdown")
    request.add_argument("--idempotency-key", dest="idempotency_key",
                         default=None,
                         help="stable key for this submission; resending it "
                              "(e.g. after a server crash) returns the "
                              "original result instead of re-running")
    request.add_argument("--retries", type=int, default=0,
                         help="reconnect attempts on transport failure "
                              "(jittered backoff; auto-generates and reuses "
                              "an idempotency key)")
    request.add_argument("--stats", action="store_true",
                         help="print the service's request-plane counters "
                              "instead of solving")
    request.set_defaults(func=_cmd_request)

    tune_p = sub.add_parser("tune", help="analytical configuration advice")
    tune_p.add_argument("problem", choices=("apsp", "ge", "tc"))
    tune_p.add_argument("--n", type=int, default=32768)
    tune_p.add_argument("--cluster", choices=("skylake16", "haswell16", "laptop"),
                        default="skylake16")
    tune_p.set_defaults(func=_cmd_tune)

    exp = sub.add_parser("experiments", help="regenerate the paper artifacts")
    exp.add_argument("names", nargs="*", default=None)
    exp.set_defaults(func=None)

    info = sub.add_parser("info", help="version and presets")
    info.set_defaults(func=_cmd_info)

    args = parser.parse_args(argv)
    if args.command == "experiments":
        from repro.experiments.harness import main as exp_main

        return exp_main(args.names or None)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
