"""Every public name resolves: each ``repro`` module's ``__all__`` names
attributes it has, so a deletion that leaves an export behind fails
here rather than in a user's ``from repro... import``."""

import importlib
import importlib.util
import os
import pkgutil
import re
from pathlib import Path

import pytest

import repro

MODULES = sorted(
    m.name
    for m in pkgutil.walk_packages(repro.__path__, "repro.")
    if not m.name.endswith("__main__")  # running one is the CLI, not an import
)

#: (module, name) deleted as unreachable from any program; no alias or
#: shim may bring one back.
REMOVED = [
    ("repro.sparkle.rdd.RDD", name)
    for name in (
        "sortByKey", "sample", "zipWithIndex", "aggregateByKey", "foldByKey",
        "coalesce", "cogroup", "join", "distinct", "flatMapValues",
        "countByKey", "fold", "reduce", "takeOrdered", "isEmpty", "mean",
        "first", "take", "foreach", "collectAsMap", "lookup", "keyBy",
        "glom", "keys", "values", "mapPartitions", "sum", "max", "min",
    )
] + [
    ("repro.sparkle.rdd", "OneToOneDependency"),
    ("repro.sparkle.rdd", "RangeDependency"),
    ("repro.sparkle.rdd", "CoalescedRDD"),
    ("repro.sparkle.rdd.NarrowDependency", "parents"),
    ("repro.sparkle", "RangePartitioner"),
    ("repro.sparkle.SparkleContext", "empty_rdd"),
    ("repro.poly", "VersionedAccess"),
    ("repro.poly", "iteration_read_versions"),
    ("repro.poly", "cross_iteration_edges"),
    ("repro.core", "rkleene_closure"),
    ("repro.core", "apsp_rkleene"),
    ("repro.core", "transitive_closure_rkleene"),
    ("repro.core", "floyd_warshall_predecessors"),
    ("repro.core", "path_from_predecessors"),
    ("repro.core", "optimal_bst_cost"),
    ("repro.core.parenthesis", "extract_splits"),
    ("repro.core", "reachable_from"),
    ("repro.core", "strongly_connected_pairs"),
    ("repro.core", "has_negative_cycle"),
    ("repro.core", "virtual_pad"),
    ("repro.core", "virtual_unpad"),
    ("repro.core.gep.GepSpec", "pad_value"),
    ("repro.service", "run_request_storm"),
    ("repro.service", "run_noisy_neighbor_storm"),
    ("repro.core.api", "GepRunOptions"),
    ("repro.sparkle.rdd", "DurableCheckpointRDD"),
    ("repro.sparkle.EngineMetrics", "checkpoint_recomputes"),
    # the heartbeat board is anonymous shared memory: no name to purge
    ("repro.sparkle", "shm_supported"),
    ("repro.sparkle.supervisor", "shm_supported"),
    ("repro.sparkle", "purge_segments"),
    ("repro.sparkle.supervisor", "purge_segments"),
    ("repro.sparkle.HeartbeatBoard", "snapshot"),
    ("repro.sparkle.supervisor", "COL_EPOCH"),
    ("repro.sparkle.backend", "_worker_init"),
    ("repro.sparkle.EngineMetrics", "storage_backing_reads"),
    # one processes→threads fallback, the solver's own: no breaker, no latch
    ("repro.service", "CircuitBreaker"),
    ("repro.service", "_breaker_fault"),
    ("repro.core.dpspark.GepSparkSolver", "disable_offload"),
    ("repro.sparkle.WorkerSupervisor", "degrade_pending"),
    ("repro.sparkle.ServiceMetrics", "circuit_trips"),
    ("repro.sparkle.ServiceMetrics", "circuit_failovers"),
    ("repro.sparkle.ServiceMetrics", "circuit_half_opens"),
    ("repro.sparkle.ServiceMetrics", "circuit_closes"),
    # one recovery model, lineage recompute: no speculation, no
    # blacklisting, no straggler fault
    ("repro.sparkle", "LastExecutorProtectedWarning"),
    ("repro.sparkle.errors", "LastExecutorProtectedWarning"),
    ("repro.sparkle.scheduler.DAGScheduler", "speculation"),
    ("repro.sparkle.scheduler.DAGScheduler", "blacklist_threshold"),
    ("repro.sparkle.scheduler.DAGScheduler", "_run_speculative"),
    ("repro.sparkle.scheduler.DAGScheduler", "_count_executor_fault"),
    ("repro.sparkle.executors.ExecutorPool", "blacklist"),
    ("repro.sparkle.executors.ExecutorPool", "healthy_executors"),
    ("repro.sparkle.executors.ExecutorPool", "is_blacklisted"),
    ("repro.sparkle.chaos", "DEFAULT_STRAGGLER_DELAY"),
    ("repro.sparkle.FaultSpec", "delay"),
    ("repro.sparkle.FaultPlan", "straggler_delay"),
    ("repro.sparkle.FaultPlan", "total_fired"),
    ("repro.sparkle.TaskRecord", "speculative_win"),
    ("repro.sparkle.StageRecord", "speculative_wins"),
    # a retry runs at once: no task backoff, no service pass backoff
    ("repro.sparkle.scheduler.DAGScheduler", "backoff_base"),
    ("repro.sparkle.scheduler.DAGScheduler", "backoff_cap"),
    ("repro.sparkle.scheduler.DAGScheduler", "backoff_jitter"),
    ("repro.sparkle.scheduler.DAGScheduler", "backoff_delay"),
    ("repro.service.SolverService", "retry_backoff_base"),
    ("repro.service.SolverService", "retry_backoff_cap"),
    ("repro.sparkle.chaos", "jittered_backoff"),
    ("repro.sparkle.TaskRecord", "backoff_seconds"),
] + [
    ("repro.semiring.Semiring", name)
    for name in ("matmul", "matpow", "star", "eye", "zeros", "ones", "add_reduce", "equal")
]


#: (callable, keyword) deleted as a second owner of a setting: the
#: partition count is the context's ``default_parallelism``, supervision
#: a ``SupervisionConfig``, the frame cap ``ServiceConfig.max_frame_bytes``;
#: or deleted with what it configured (the board's ``/dev/shm`` name, CB
#: storage's write-through, the opt-in poison fallback that is now the
#: solver's default) or because no caller passed it
REMOVED_KEYWORDS = [
    ("repro.core.api.run_gep", "num_partitions"),
    ("repro.core.dpspark.GepSparkSolver", "num_partitions"),
    ("repro.baselines.SchoenemanZolaAPSP", "num_partitions"),
    ("repro.sparkle.SparkleContext", "heartbeat_interval"),
    ("repro.sparkle.SparkleContext", "task_deadline"),
    ("repro.sparkle.SparkleContext", "max_task_failures"),
    ("repro.service.serve_forever", "max_frame_bytes"),
    ("repro.service.serve_forever", "install_signal_handlers"),
    ("repro.sparkle.MemoryManager", "executor_resolver"),
    ("repro.sparkle.WorkerSupervisor", "prefix"),
    ("repro.sparkle.HeartbeatBoard", "name"),
    ("repro.sparkle.storage.SharedStorage", "backing"),
    ("repro.core.api.run_gep", "degrade_on_crash"),
    ("repro.core.dpspark.GepSparkSolver", "degrade_on_crash"),
]


def _resolve(dotted: str):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


def test_every_exported_name_resolves():
    exported, missing = 0, []
    for module in MODULES:
        mod = importlib.import_module(module)
        names = getattr(mod, "__all__", ())
        exported += len(names)
        missing += [f"{module}.{name}" for name in names if not hasattr(mod, name)]
    assert not missing, f"__all__ names what its module does not define: {missing}"
    assert exported > 300  # the walk found the package


def test_removed_names_stay_removed():
    present = [f"{owner}.{name}" for owner, name in REMOVED if hasattr(_resolve(owner), name)]
    assert not present
    for module in ("repro.core.rkleene", "repro.core.predecessors"):
        with pytest.raises(ImportError):
            importlib.import_module(module)


@pytest.mark.parametrize("owner, keyword", REMOVED_KEYWORDS)
def test_removed_keywords_raise_type_error(owner, keyword):
    # Python refuses an unknown keyword before it looks for missing
    # arguments, so the call needs nothing else to fail on the keyword.
    with pytest.raises(TypeError, match=keyword):
        _resolve(owner)(**{keyword: 1})


def _reach_tool():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "reach.py"
    spec = importlib.util.spec_from_file_location("reach_tool", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_keep_row_names_a_definition():
    """Each ``benchmarks/reach.py`` ``KEEP`` row matches a definition
    that exists, so a deletion that strands a row fails here, not at the
    next 15-minute ``make reach``."""
    reach = _reach_tool()
    names: dict[str, list[str]] = {}
    for dirpath, _dirs, files in os.walk(reach.SRC):
        for fname in files:
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                rel = os.path.relpath(path, reach.SRC)
                names[rel] = [row["name"] for row in reach.rows_of(path)]
    stranded = [
        (path, pattern)
        for path, pattern, _reason in reach.KEEP
        if not any(
            re.fullmatch(pattern, name)
            for rel, defined in names.items()
            if reach.covers(path, rel)
            for name in defined
        )
    ]
    assert not stranded, f"KEEP rows naming no definition: {stranded}"


def test_removed_recovery_mechanisms_stay_removed(capsys):
    """Speculation, executor blacklisting, the ``slow`` fault and the
    retry backoff are gone from every surface: import, fault grammar,
    CLI and counters (``REMOVED`` pins the attributes)."""
    from repro.__main__ import main
    from repro.sparkle import EngineMetrics, FaultSpec
    from repro.sparkle.chaos import FAULT_KINDS

    with pytest.raises(ImportError):
        from repro.sparkle import LastExecutorProtectedWarning  # noqa: F401
    with pytest.raises(ValueError, match="unknown fault kind 'slow'") as err:
        FaultSpec("slow", 0.1)
    assert "slow" not in FAULT_KINDS and str(FAULT_KINDS) in str(err.value)
    assert main([
        "solve", "apsp", "--engine", "spark", "--n", "16",
        "--chaos", "seed=1,slow=0.1",
    ]) == 2
    assert "invalid --chaos spec: unknown --chaos key 'slow'" in capsys.readouterr().err
    recovery = EngineMetrics().summary("recovery")
    for key in (
        "speculative_launched", "speculative_wins", "stragglers_cancelled",
        "executors_blacklisted", "last_executor_protected",
        "backoff_waits", "backoff_seconds_total",
    ):
        assert key not in recovery
