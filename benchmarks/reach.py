#!/usr/bin/env python3
"""`make reach`: which ``src/`` definitions a program reaches, and which only tests do.

    python3 benchmarks/reach.py [--out PATH] [--traces DIR]

Runs three drivers with every Python process line-traced:

- ``bench``: ``python3 bench/run.py --selftest`` and one ``--seconds 1
  --trace 1`` set of the repo's benchmark (its six workload shapes);
- ``programs``: ``python -m repro.experiments`` and every ``examples/*.py``;
- ``tests``: tier-1, one pytest process per test module, one at a time
  (two at once disturb each other's ``/dev/shm`` checks).

Every process is traced, children included: the tool installs a
``usercustomize`` module under a temporary ``PYTHONUSERBASE`` that loads
this file and calls :func:`install`, so a ``repro serve`` child whose
test rewrites ``PYTHONPATH`` is still traced.  A process records, per
code object under ``src/``, the lines it ran, and writes them at exit,
before ``os._exit`` (a forked worker's way out) and from a timer thread
(a SIGKILLed server's last second is the only thing lost).

It writes one row per function, method and class: ``file:line``, body
lines, which programs (``bench``, ``programs``) reach it, name, the test
modules that do, the keep reason, and a status:

- ``program``: a program reaches it;
- ``kept``: only tests reach it, and :data:`KEEP` gives the reason;
- ``CANDIDATE``: only tests reach it and nothing keeps it: delete it;
- ``unseen``: no driver ran a line of it, so the trace cannot tell what
  reaches it (a class with no method of its own, a path no test takes).
  It is never a candidate.

Then a per-file summary, which it also prints: executable lines (the
lines of function bodies; module and class bodies run at import and are
not counted), lines a program reached, lines only tests reached, and
lines nothing reached.  The raw traces stay in ``reach-traces/`` next to
``--out`` (default ``.bench_tmp/reach.txt``); ``--traces DIR``
tabulates them again without running anything, e.g. after editing
:data:`KEEP`.  A full run takes ~15 min on a 2-core host, so this is a
tool, not a test.
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
import threading
import time

# Every traced process imports this file for install(); the drivers'
# and the table's imports stay inside their functions.

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")
PROGRAMS = ("bench", "programs")
FLUSH_PERIOD_S = 1.0

# Why a definition only tests reach stays: (path under src/repro, or a
# directory ending in "/"; a regular expression the qualified name must
# match in full; the reason).  The first entry that matches gives the
# reason.  A definition that matches none is a CANDIDATE.
KEEP: list[tuple[str, str, str]] = [
    # planes whose drivers are the soaks and the chaos suites
    ("__main__.py", r".*", "the CLI: its tests run it as a user does"),
    # the chaos plane: each row names the assertion a mutation of the
    # helper broke (the mutation in brackets)
    ("sparkle/chaos.py", r"deterministic_fraction",
     "test_scheduler_recovery TestFaultPlanSurface::test_fraction_is_pure [hash without the seed]"),
    ("sparkle/chaos.py", r"FaultSpec(\.__post_init__)?",
     "test_scheduler_recovery TestFaultPlanSurface::test_spec_validation [no rate check]"),
    ("sparkle/chaos.py", r"FaultPlan(\.__init__)?",
     "test_scheduler_recovery TestFaultPlanSurface::test_spec_validation [no duplicate-kind check]"),
    ("sparkle/chaos.py", r"FaultPlan\.default",
     "test_scheduler_recovery TestFaultPlanSurface::test_from_string_bare_seed_arms_default_mix [no kind armed]"),
    ("sparkle/chaos.py", r"FaultPlan\.from_string",
     "test_scheduler_recovery TestFaultPlanSurface::test_from_string_parallel_flag [parallel=1 ignored]"),
    ("sparkle/chaos.py", r"FaultPlan\._decide",
     "test_scheduler_recovery TestFaultPlanSurface::test_decisions_are_reproducible [rate ignored]"),
    ("sparkle/chaos.py", r"FaultPlan\.task_fault",
     "test_scheduler_recovery TestExecutorLossRecovery::test_dropped_map_outputs_are_recomputed [never faults]"),
    ("sparkle/chaos.py", r"FaultPlan\.io_fault",
     "test_scheduler_recovery TestTransientIO::test_storage_read_fault_is_retried [never faults]"),
    ("sparkle/chaos.py", r"FaultPlan\.worker_fault",
     "test_supervision TestWorkerKillAcceptance::test_solve_survives_seeded_sigkill_bit_identical [never faults]"),
    ("sparkle/chaos.py", r"FaultPlan\.mem_squeeze",
     "test_memory_governor TestBudgetedSolve::test_mem_squeeze_is_deterministic_per_seed [never squeezes]"),
    ("sparkle/chaos.py", r"FaultPlan\.request_fault",
     "test_service TestRequestStorm::test_sixteen_client_storm_threads [never twists]"),
    ("sparkle/chaos.py", r"FaultPlan\.driver_kill",
     "test_service TestDrain::test_storm_with_seeded_driver_kill_twist_drains_midflight [never kills]"),
    ("sparkle/chaos.py", r"FaultPlan\.noisy_neighbor",
     "test_tenancy TestNoisyNeighborStorm::test_victim_keeps_weighted_share_and_results_stay_bit_identical [no burst]"),
    ("sparkle/chaos.py", r"FaultPlan\.durable_fault",
     "test_durability TestDurableBlockStore::test_torn_write_chaos_auto_heals [never tears]"),
    ("sparkle/chaos.py", r"FaultPlan\.note",
     "test_scheduler_recovery TestTransientIO::test_shuffle_overflow_fault_is_retried [counts nothing]"),
    ("sparkle/chaos.py", r"FaultPlan\.fired",
     "test_scheduler_recovery TestTransientIO::test_shuffle_overflow_fault_is_retried [reads zeros]"),
    ("sparkle/chaos.py", r"FaultPlan\.describe",
     "test_extensions2 TestCli::test_solve_chaos_flag [no seed printed]"),
    ("sparkle/errors.py", r"_rebuild|SparkleError\.__reduce__",
     "the one pickle rule: a worker ships its errors by pickling them"),
    ("sparkle/errors.py", r"\w+(\.__init__|\.__str__)?",
     "a typed error of a failure path the chaos suites and soaks drive"),
    ("sparkle/supervisor.py", r"HeartbeatBoard\.reset_row|WorkerSupervisor\.(reset_slot|kill_slot|respawn_delay)",
     "the per-slot respawn after a worker death: supervision and service suites"),
    ("sparkle/supervisor.py", r"WorkerSupervisor\.(pid_for_slot|_signal)",
     "the deadline kill of one slot's worker: supervision and service suites"),
    ("sparkle/supervisor.py", r"WorkerSupervisor\.token_for_slot",
     "crash attribution: the call a dead worker was running"),
    ("sparkle/supervisor.py", r"HeartbeatBoard\.pids|WorkerSupervisor\.(worker_pids|kill_workers)",
     "the atexit reaper kills every registered worker: the driver-death tests"),
    ("sparkle/supervisor.py", r"WorkerSupervisor\.(record_failure|failures|quarantine|quarantined)",
     "poison quarantine: the supervision and service suites"),
    ("sparkle/supervisor.py", r"WorkerSupervisor\.unstack",
     "the stack-token rule: a death inside a stack charges no call"),
    ("sparkle/supervisor.py", r"worker_self_fault",
     "the chaos plane's real worker faults: a worker runs it on itself"),
    # the durability plane (`--checkpoint-dir`, `--resume`, `repro fsck`)
    ("sparkle/durable.py", r"FsckReport(\.clean)?",
     "test_durability TestDurableBlockStore::test_disk_corruption_detected_and_fscked [missing only]"),
    ("sparkle/durable.py", r"DurableBlockStore\._entry",
     "test_durability TestDurableBlockStore::test_missing_key_is_typed [a plain KeyError]"),
    ("sparkle/durable.py", r"DurableBlockStore\.get",
     "test_durability TestDurableBlockStore::test_corrupt_block_chaos_is_never_served [checksum unchecked]"),
    ("sparkle/durable.py", r"DurableBlockStore\.__len__",
     "conftest assert_quiescent via test_lifetimes test_stop_empties_a_budgeted_context_and_its_spill_dir "
     "[counts one more]"),
    ("sparkle/durable.py", r"DurableBlockStore\.fsck",
     "test_durability TestDurableBlockStore::test_disk_corruption_detected_and_fscked [corrupt not reported]"),
    ("sparkle/durable.py", r"SolveJournal\.exists",
     "test_durability TestCrashResume::test_kill_then_resume_bit_identical [always False]"),
    ("sparkle/durable.py", r"SolveJournal\.reset",
     "test_durability TestCrashResume::test_fresh_solve_in_an_old_directory_starts_a_new_journal [no-op]"),
    # the tenant isolation plane (`repro serve --tenant-*`, brownout)
    ("sparkle/tenancy.py", r"TenantPolicy(\.__post_init__)?",
     "test_tenancy TestTenantPolicy::test_invalid_knobs_are_refused [weight unchecked]"),
    ("sparkle/tenancy.py", r"TokenBucket(\.__init__)?",
     "test_tenancy TestRateLimit::test_over_rate_tenant_is_refused_with_retry_after [starts empty]"),
    ("sparkle/tenancy.py", r"TokenBucket\._refill",
     "test_tenancy TestTokenBucket::test_tokens_cap_at_burst [no cap at burst]"),
    ("sparkle/tenancy.py", r"TokenBucket\.try_take",
     "test_tenancy TestRateLimit::test_over_rate_tenant_is_refused_with_retry_after [takes no token]"),
    ("sparkle/tenancy.py", r"TokenBucket\.retry_after",
     "test_tenancy TestTokenBucket::test_grant_schedule_is_a_pure_function_of_the_clock [always 0]"),
    ("sparkle/tenancy.py", r"DeficitRoundRobin\.drain",
     "test_service TestLifecycle::test_stop_without_drain_fails_queued_requests_typed [returns nothing]"),
    ("sparkle/tenancy.py", r"DeficitRoundRobin\.tenants",
     "test_tenancy TestBrownoutEffects::test_shed_rung_refuses_lowest_weight_tenants_only [no contenders]"),
    ("sparkle/tenancy.py", r"BrownoutLadder\.name",
     "test_tenancy TestBrownoutEffects::test_shed_rung_refuses_lowest_weight_tenants_only [always normal]"),
    ("service.py", r"is_retryable", "the client's retry contract read off a typed error: service suites"),
    ("service.py", r"SolveTicket\.outcome", "a request's terminal state (DESIGN §15): service suites"),
    ("service.py", r"SolveTicket\._fail|SolverService\._fail_flight",
     "a failed or deadline-cancelled request: the service soaks drive it"),
    ("service.py", r"ResultCache\.(__len__|live_bytes)", "the leak checks: a stopped service caches nothing"),
    ("service.py", r"ResultCache\.on_squeeze", "a memory squeeze evicts cached results: the chaos soak"),
    ("service.py", r"RequestJournal\.(settled_lookup|settled_result|incomplete|spooled)|SolverService\.resume",
     "hot restart (`repro serve --resume`): the resume suites and the SIGKILL soak"),
    ("service.py", r"SolverService\.draining", "the drain state a SIGTERM sets: the drain tests"),
    ("service.py", r"SolverService\.(__enter__|__exit__)", "a `with SolverService(...)` block: service suites"),
    ("service.py", r"_GeneratedTable\.__reduce__", "a generated table pickles as its key: the hit suite"),
    ("sparkle/backend.py", r".*",
     "process-plane crash and deadline paths: supervision suites (ROADMAP item 5 decides the plane)"),
    ("sparkle/scheduler.py", r"DAGScheduler\._lose_executor",
     "test_scheduler_recovery TestPlacement::test_faults_never_move_a_partition_and_a_loss_drops_only_its_own "
     "[drops every executor's outputs]"),
    ("sparkle/scheduler.py", r"DAGScheduler\._recompute_missing",
     "test_scheduler_recovery TestExecutorLossRecovery::test_dropped_map_outputs_are_recomputed [recomputes nothing]"),
    # the map side's Python loop: the no-compiler path, what the C
    # declines, and the oracle of native.bucket
    ("sparkle/scheduler.py", r"_bucket_records",
     "test_sparkle_engine TestShuffleAccounting::test_map_task_sizes_a_shared_fan_out_value_once "
     "[walks each record]"),
    ("sparkle/rdd.py", r"_role_create",
     "test_native test_bucket_matches_the_python_loop [an empty combiner]"),
    ("sparkle/rdd.py", r"_role_merge_value",
     "test_native test_bucket_matches_the_python_loop [drops the value]"),
    # the memory plane (`--memory-budget`, `--degrade-on-pressure`,
    # `--tenant-quota`); the quiescence ledgers are read by
    # tests/conftest.py::assert_quiescent, the invariant of a context at rest
    ("sparkle/memory.py", r"MemoryManager\.critical_since_last_check",
     "test_memory_governor TestBudgetedSolve::test_degradation_switches_im_to_cb_bit_identically [never latches]"),
    ("sparkle/memory.py", r"MemoryManager\.set_tenant_quota",
     "test_tenancy TestQuotaEnforcement::test_quota_on_unbudgeted_context_is_enforced [quota not stored]"),
    ("sparkle/memory.py", r"MemoryManager\.charge_tenant",
     "test_tenancy TestQuotaEnforcement::test_quota_on_unbudgeted_context_is_enforced [quota unchecked]"),
    ("sparkle/memory.py", r"MemoryManager\.release_tenant",
     "test_tenancy TestQuotaEnforcement::test_breach_refuses_only_the_breacher_and_releases_on_settle [no-op]"),
    ("sparkle/memory.py", r"MemoryManager\.squeeze",
     "test_memory_governor TestMemoryManager::test_squeeze_shrinks_with_quantum_floor [budget kept]"),
    ("sparkle/memory.py", r"MemoryManager\.usage",
     "conftest assert_quiescent via test_lifetimes test_stop_empties_a_budgeted_context_and_its_spill_dir "
     "[live_bytes one more]"),
    ("sparkle/shuffle.py", r"ShuffleManager\.(live_bytes|num_shuffles|num_spilled)",
     "conftest assert_quiescent via test_lifetimes test_stop_empties_a_budgeted_context_and_its_spill_dir "
     "[each counts one more]"),
    ("sparkle/shuffle.py", r"ShuffleManager\._spill_block_key",
     "test_memory_governor TestShuffleManagerSpill::test_corrupt_spill_surfaces_as_fetch_failure "
     "[keyed by shuffle only]"),
    ("sparkle/shuffle.py", r"ShuffleManager\._output_bytes_locked",
     "test_memory_governor TestShuffleManagerSpill::test_overflow_spills_oldest_and_fetches_back [reads 0]"),
    ("sparkle/shuffle.py", r"ShuffleManager\._spill_oldest_locked",
     "test_memory_governor TestShuffleManagerSpill::test_no_spill_store_drops_oldest_for_recompute [newest]"),
    ("sparkle/shuffle.py", r"ShuffleManager\._spill_buckets_locked",
     "test_memory_governor TestShuffleManagerSpill::test_overflow_spills_oldest_and_fetches_back "
     "[spill not booked]"),
    ("sparkle/shuffle.py", r"ShuffleManager\.drop_executor_outputs",
     "test_scheduler_recovery TestExecutorLossRecovery::test_dropped_map_outputs_are_recomputed [drops nothing]"),
    ("sparkle/storage.py", r"(BlockManager|SharedStorage)\.live_bytes|BlockManager\.num_(blocks|spilled)"
     r"|SharedStorage\.__len__",
     "conftest assert_quiescent via test_lifetimes test_stop_empties_a_budgeted_context_and_its_spill_dir "
     "[each counts one more]"),
    ("sparkle/storage.py", r"BlockManager\._spill_key",
     "test_memory_governor TestBlockManagerSpill::test_disk_only_puts_race_sweeps_without_tearing_bookkeeping "
     "[keyed by rdd only]"),
    ("sparkle/storage.py", r"BlockManager\._evict_one_locked",
     "test_memory_governor TestBlockManagerSpill::test_eviction_spills_and_reads_back [evicts the newest]"),
    ("sparkle/storage.py", r"BlockManager\._note_spilled_locked",
     "test_memory_governor TestBlockManagerSpill::test_eviction_spills_and_reads_back [spill not metered]"),
    # the request plane
    ("sparkle/requests.py", r"SolveRequest\._check_table",
     "test_service_hits TestNanBoundary::test_explicit_table_with_a_nan_is_refused [NaN accepted]"),
    ("sparkle/requests.py", r"SolveRequest\.identity",
     "test_service TestRequestStorm::test_sixteen_client_storm_threads [a table request named by its config]"),
    ("sparkle/metrics.py", r"ServiceMetrics\.drain_brownout_transitions", "tenancy: brownout decisions"),
    ("core/dpspark.py", r"GepSparkSolver\.(_journal\w*|_fingerprint|_try_resume)|SolveReport\.recovery",
     "durability and recovery: the crash/resume and chaos suites"),
    ("core/dpspark.py", r"SolveReport\.memory|_drain_iterator",
     "memory pressure: degrade_on_pressure's probe job"),
    ("core/dpspark.py", r"GepSparkSolver\._fall_back_to_threads",
     "the poison fallback to threads: supervision and service suites"),
    ("core/dpspark.py", r"_broadcast_operands", "the bcast strategy (DESIGN §7); no program selects it"),
    ("sparkle/broadcast.py", r"Broadcast(\.__init__)?",
     "the bcast strategy (DESIGN §7): test_sparkle_engine TestBroadcastAndStorage::test_broadcast_value_and_bytes "
     "[no bytes charged]"),
    ("sparkle/broadcast.py", r"Broadcast\.value",
     "the bcast strategy (DESIGN §7): test_scheduler_recovery TestTransientIO::test_broadcast_read_fault_is_retried "
     "[fault plan unread]"),
    ("sparkle/context.py", r"SparkleContext\.broadcast", "the bcast strategy (DESIGN §7)"),
    ("sparkle/context.py", r"SparkleContext\.setCheckpointDir", "durability: crash/resume suites"),
    ("sparkle/context.py", r"SparkleContext\.total_cores", "executor-cores semantics the engine tests read"),
    ("sparkle/rdd.py", r"RDD\.(reduceByKey|groupByKey|union|count)",
     "an engine workload other modules' tests run"),
    ("sparkle/rdd.py", r"RDD\.(getNumPartitions|to_debug_string)", "other modules' tests read it"),
    ("sparkle/rdd.py", r"RDD\.checkpoint|CheckpointedRDD(\.(__init__|num_partitions|compute))?",
     "the in-memory lineage cut: checkpoint_every and the journal's snapshot"),
    ("sparkle/partitioner.py", r"Partitioner\.(__eq__|__hash__)|HashPartitioner\._params",
     "partitioner identity: partitionBy skips the shuffle on an equal partitioner"),
    ("sparkle/partitioner.py", r"GridPartitioner(\.(__init__|_params|partition))?",
     "the §VI grid partitioner benchmarks/bench_ablation.py measures"),
    # oracles, and what ROADMAP items decide
    ("baselines/", r".*", "reference oracle"),
    ("core/gep.py", r"gep_reference", "reference oracle"),
    ("core/gep.py", r"GepSpec\.sigma|(Semiring|GaussianElimination)Gep\.f",
     "the spec's scalar definition the reference oracle reads"),
    ("core/gep.py", r"GepSpec\.__repr__", "cosmetic"),
    ("kernels/iterative.py", r"gep_tile_update_loop", "reference oracle"),
    ("kernels/cache_model.py", r".*", "the locality claim README cites"),
    # what a collect_stats solve reports (bench solves collect none)
    ("kernels/stats.py", r"KernelStats(\.record_base)?",
     "test_dpspark test_kernel_stats_updates_exact [updates not added]"),
    ("kernels/stats.py", r"KernelStats\.record_recursion",
     "test_kernels test_recursive_stats_accounting [counts nothing]"),
    ("kernels/stats.py", r"KernelStats\.record_parallel_for",
     "test_kernels TestOmpRuntime::test_stats_width_recording [width not kept]"),
    ("kernels/stats.py", r"KernelStats\.merge",
     "test_dpspark test_task_local_kernel_stats_equal_the_serial_oracle [other.updates dropped]"),
    ("kernels/stats.py", r"KernelStats\.total_invocations",
     "test_blocked test_blocked_stats_total_work [always 0]"),
    # the simulated OpenMP runtime (ROADMAP item 2(c) decides it): what
    # only tests reach is how it crosses the process boundary
    ("kernels/openmp.py", r"OmpRuntime\.__getstate__",
     "test_backend test_recursive_kernel_offloads_and_matches_threads [ships the thread-local]"),
    ("kernels/openmp.py", r"OmpRuntime\.__setstate__",
     "test_backend test_recursive_kernel_offloads_and_matches_threads [no fresh thread-local]"),
    ("experiments/calibration.py", r".*", "ROADMAP item 8(c) decides it"),
    ("core/tuning.py", r"adaptive_tune", "ROADMAP item 8(c) decides it"),
    ("core/tuning.py", r"TuningAdvice\.block", "part of the advice `repro tune` prints"),
    # the paper's other instances and derivations
    ("semiring/", r"(Boolean|RealField|CountingSemiring|MinPlus|MaxPlus)(\.(add|add_inplace|mul))?",
     "a semiring a GEP spec runs on: TC, and the counting and real cross-checks"),
    ("core/gep.py", r"(Semiring|GaussianElimination)Gep\.apply_k|GepSpec\.apply_corner",
     "the NumPy fold of every spec, step by step (no compiler: make tier1-nocc; the masked path "
     "with no corner fold): the compiled folds' oracle"),
    # the cold-cache build: a program reaches it once per host and cache key
    ("kernels/native.py", r"_build",
     "test_native test_two_processes_racing_a_cold_cache_both_load [published without os.replace]"),
    ("kernels/native.py", r"_include_dir",
     "test_native test_two_processes_racing_a_cold_cache_both_load [an include directory without Python.h]"),
    ("semiring/", r"available_semirings", "the registry's public listing"),
    ("core/blocked.py", r"case_of", "Fig. 4's case table the kernel tests check"),
    ("poly/", r"AffB\.(__sub__|scale)|LinearConstraint\.holds|SplitFunction(\.parallelism_rank)?",
     "methodology 2 (§IV-B), cross-checked against methodology 1"),
    ("cluster/", r".*", "the cost model's exact counts, validated against the engine"),
    ("workloads/", r".*", "an input generator the tests' workloads use"),
]


# ----------------------------------------------------------------------
# the tracer, run inside every traced process

def install() -> None:
    """Trace every line of ``src/repro`` this process runs into
    ``$REACH_OUT/<pid>-<n>.json`` (called from ``usercustomize``)."""
    import json

    out_dir, src = os.environ["REACH_OUT"], os.environ["REACH_SRC"]
    lines: dict[tuple[str, str, int], set[int]] = {}
    tracers: dict[object, object] = {}
    state = {"path": None, "pid": None}

    def local_for(code):
        seen = lines.setdefault((code.co_filename, code.co_qualname, code.co_firstlineno), set())
        add = seen.add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        try:
            return tracers[code]
        except KeyError:
            tracer = local_for(code) if code.co_filename.startswith(src) else None
            tracers[code] = tracer
            return tracer

    def flush() -> None:
        if state["pid"] != os.getpid():  # first flush, or a forked child's
            state["pid"] = os.getpid()
            state["path"] = os.path.join(out_dir, f"{os.getpid()}-{time.monotonic_ns()}.json")
        record = [[f, q, first, sorted(seen)] for (f, q, first), seen in list(lines.items()) if seen]
        tmp = f"{state['path']}.{threading.get_ident()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        os.replace(tmp, state["path"])

    def timer() -> None:
        while True:
            time.sleep(FLUSH_PERIOD_S)
            flush()

    def start_timer() -> None:
        threading.Thread(target=timer, name="reach-flush", daemon=True).start()

    real_exit = os._exit

    def traced_exit(code):
        flush()
        real_exit(code)

    os._exit = traced_exit
    atexit.register(flush)
    os.register_at_fork(after_in_child=start_timer)
    start_timer()
    threading.settrace(on_call)
    sys.settrace(on_call)


_USERCUSTOMIZE = """\
import importlib.util, os
if os.environ.get("REACH_OUT"):
    _spec = importlib.util.spec_from_file_location("_reach_tracer", {tool!r})
    _mod = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_mod)
    _mod.install()
"""


# ----------------------------------------------------------------------
# the drivers

def traced_env(userbase: str, out_dir: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONUSERBASE=userbase, REACH_OUT=out_dir, REACH_SRC=SRC)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run(label: str, cmd: list[str], userbase: str, trace_dir: str) -> bool:
    import subprocess

    out_dir = os.path.join(trace_dir, label.replace("/", "_"))
    os.makedirs(out_dir, exist_ok=True)
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=traced_env(userbase, out_dir),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    ok = proc.returncode == 0
    print(f"  {label}: {'ok' if ok else f'exit {proc.returncode}'} "
          f"in {time.monotonic() - start:.0f} s", file=sys.stderr, flush=True)
    if not ok:
        print("\n".join(proc.stderr.splitlines()[-5:]), file=sys.stderr)
    return ok


def drive(userbase: str, trace_dir: str) -> list[str]:
    """Run each driver traced; return the commands that did not exit 0."""
    py = sys.executable
    jobs = [("bench", [py, "bench/run.py", "--selftest"]),
            ("bench", [py, "bench/run.py", "--seconds", "1", "--trace", "1"]),
            ("programs", [py, "-m", "repro.experiments"])]
    jobs += [("programs", [py, os.path.join("examples", name)])
             for name in sorted(os.listdir(os.path.join(ROOT, "examples"))) if name.endswith(".py")]
    jobs += [(f"tests/{name[:-3]}", [py, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                                     os.path.join("tests", name)])
             for name in sorted(os.listdir(os.path.join(ROOT, "tests")))
             if name.startswith("test_") and name.endswith(".py")]
    return [f"{label}: {' '.join(cmd[1:])}" for label, cmd in jobs
            if not run(label, cmd, userbase, trace_dir)]


# ----------------------------------------------------------------------
# the table

def code_lines(code) -> set[int]:
    """The lines a line tracer can report for one code object: its
    entries less the leading ones on the ``def`` line (the frame's set-up)."""
    entries = [line for _, _, line in code.co_lines() if line is not None]
    i = 0
    while i < len(entries) and entries[i] == code.co_firstlineno:
        i += 1
    return set(entries[i:])


def rows_of(path: str) -> list[dict]:
    """One row per function, method and class of one source file.  A
    nested function, lambda or comprehension belongs to the row it sits
    in; module and class bodies (run at import) belong to none."""
    import ast
    import inspect

    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    rows: dict[str, dict] = {}

    def walk(code) -> None:
        for const in code.co_consts:
            if hasattr(const, "co_qualname"):
                qual = const.co_qualname.split(".<locals>.")[0]
                if not const.co_flags & inspect.CO_NEWLOCALS:
                    walk(const)  # a class body: its methods are rows
                elif not qual.split(".")[-1].startswith("<"):
                    row = rows.setdefault(qual, {"name": qual, "line": const.co_firstlineno,
                                                 "lines": set(), "kind": "def"})
                    row["lines"] |= code_lines(const)
                    walk_nested(const, row)
                else:
                    walk(const)  # a module- or class-level lambda: no row

    def walk_nested(code, row) -> None:
        for const in code.co_consts:
            if hasattr(const, "co_qualname"):
                row["lines"] |= code_lines(const)
                walk_nested(const, row)

    walk(compile(source, path, "exec"))

    def classes(body, prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                qual = prefix + node.name
                own = [r for q, r in rows.items() if q.startswith(qual + ".")]
                rows[qual] = {"name": qual, "line": node.lineno, "kind": "class",
                              "lines": set().union(*(r["lines"] for r in own))}
                classes(node.body, qual + ".")

    classes(ast.parse(source).body, "")
    return sorted(rows.values(), key=lambda r: r["line"])


def reached(trace_dir: str) -> dict[str, dict[str, set[int]]]:
    """label -> file -> lines run, merged over every process of a label."""
    import json

    out: dict[str, dict[str, set[int]]] = {}
    for label in sorted(os.listdir(trace_dir)):
        files = out.setdefault(label.replace("_", "/", 1) if label.startswith("tests_")
                               else label, {})
        for name in os.listdir(os.path.join(trace_dir, label)):
            if not name.endswith(".json"):
                continue
            with open(os.path.join(trace_dir, label, name), encoding="utf-8") as fh:
                for path, _qual, _first, lines in json.load(fh):
                    files.setdefault(path, set()).update(lines)
    return out


def covers(path: str, rel: str) -> bool:
    """Whether a :data:`KEEP` path (a file, or a directory ending in
    "/") covers the source file ``rel``."""
    return rel.startswith(path) if path.endswith("/") else rel == path


def keep_reason(rel: str, name: str) -> str | None:
    import re

    for path, pattern, reason in KEEP:
        if covers(path, rel) and re.fullmatch(pattern, name):
            return reason
    return None


def table(trace_dir: str) -> tuple[list[str], list[str]]:
    runs = reached(trace_dir)
    tests = sorted(label for label in runs if label.startswith("tests/"))
    rows_out = [f"{'status':9} {'file:line':44} {'lines':>5} {'by':8} name | test modules | keep"]
    summary = [f"{'file':36} {'exec':>6} {'program':>8} {'tests':>6} {'unseen':>7}"]
    totals = [0, 0, 0, 0]
    for dirpath, _dirs, names in sorted(os.walk(SRC)):
        for fname in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(dirpath, fname)
            rel = os.path.relpath(path, SRC)
            ran = {label: runs[label].get(path, set()) for label in runs}
            prog = set().union(*(ran.get(label, set()) for label in PROGRAMS))
            tested = set().union(*(ran[label] for label in tests))
            executable: set[int] = set()
            for row in rows_of(path):
                body = row["lines"]
                if row["kind"] == "def":
                    executable |= body
                by = "+".join(label for label in PROGRAMS if body & ran.get(label, set())) or "-"
                by_tests = [label[len("tests/"):] for label in tests if body & ran[label]]
                reason = ""
                if by != "-":
                    status = "program"
                elif by_tests:
                    reason = keep_reason(rel, row["name"]) or ""
                    status = "kept" if reason else "CANDIDATE"
                else:
                    status = "unseen"
                rows_out.append(f"{status:9} {rel + ':' + str(row['line']):44} {len(body):5} {by:8} "
                                f"{row['name']} | {', '.join(by_tests)} | {reason}".rstrip(" |"))
            counts = [len(executable), len(executable & prog),
                      len((executable & tested) - prog), len(executable - prog - tested)]
            totals = [a + b for a, b in zip(totals, counts)]
            summary.append(f"{rel:36} {counts[0]:6} {counts[1]:8} {counts[2]:6} {counts[3]:7}")
    summary.append(f"{'total':36} {totals[0]:6} {totals[1]:8} {totals[2]:6} {totals[3]:7}")
    return rows_out, summary


def main() -> int:
    import shutil
    import subprocess
    import tempfile

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", default=os.path.join(ROOT, ".bench_tmp", "reach.txt"))
    p.add_argument("--traces", help="tabulate an earlier run's kept trace directory, run nothing")
    args = p.parse_args()
    tmp = tempfile.mkdtemp(prefix="reach-")
    try:
        trace_dir = args.traces or os.path.join(tmp, "traces")
        failed: list[str] = []
        if not args.traces:
            userbase = os.path.join(tmp, "userbase")
            user_site = subprocess.run(
                [sys.executable, "-c", "import site; print(site.getusersitepackages())"],
                env=dict(os.environ, PYTHONUSERBASE=userbase), capture_output=True,
                text=True, check=True).stdout.strip()
            os.makedirs(user_site)
            with open(os.path.join(user_site, "usercustomize.py"), "w", encoding="utf-8") as fh:
                fh.write(_USERCUSTOMIZE.format(tool=os.path.abspath(__file__)))
            failed = drive(userbase, trace_dir)
        rows, summary = table(trace_dir)
        os.makedirs(os.path.dirname(args.out), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows + [""] + summary) + "\n")
        print("\n".join(summary))
        candidates = [r for r in rows if r.startswith("CANDIDATE")]
        print(f"\n{len(candidates)} candidates; full table in {args.out}")
        for line in failed:
            print(f"driver did not exit 0 (its lines still count): {line}")
    finally:
        if not args.traces and os.path.isdir(os.path.join(tmp, "traces")):
            keep = os.path.join(os.path.dirname(args.out), "reach-traces")
            shutil.rmtree(keep, ignore_errors=True)
            shutil.move(os.path.join(tmp, "traces"), keep)
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
