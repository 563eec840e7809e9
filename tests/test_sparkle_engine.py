"""sparkle engine: scheduler, shuffle, metrics, failure recovery,
broadcast, shared storage, block cache."""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.sparkle import (
    BlockNotFoundError,
    FaultPlan,
    FaultSpec,
    JobAborted,
    ShuffleFetchFailed,
    SparkleContext,
    TaskError,
)
from repro.sparkle.broadcast import Broadcast
from repro.sparkle.durable import DurableBlockStore
from repro.sparkle.executors import ExecutorPool
from repro.sparkle.memory import MemoryManager
from repro.sparkle.metrics import EngineMetrics, ServiceMetrics
from repro.sparkle.shuffle import ShuffleManager
from repro.sparkle.storage import BlockManager
from repro.util import sizeof_block


class TestStageStructure:
    def test_narrow_only_job_is_one_stage(self):
        with SparkleContext(2, 2) as sc:
            sc.parallelize(range(8), 4).map(lambda x: x + 1).collect()
            job = sc.metrics.jobs[-1]
            assert job.num_stages == 1
            assert job.stages[0].kind == "result"

    def test_shuffle_splits_stages(self):
        with SparkleContext(2, 2) as sc:
            (
                sc.parallelize([(i % 2, i) for i in range(8)], 4)
                .reduceByKey(lambda a, b: a + b, 3)
                .collect()
            )
            job = sc.metrics.jobs[-1]
            assert job.num_stages == 2
            kinds = [s.kind for s in job.stages]
            assert kinds == ["shuffle-map", "result"]
            assert job.stages[0].num_tasks == 4  # parent partitions
            assert job.stages[1].num_tasks == 3  # reducer partitions

    def test_chained_shuffles(self):
        with SparkleContext(2, 2) as sc:
            rdd = (
                sc.parallelize([(i % 4, i) for i in range(16)], 4)
                .reduceByKey(lambda a, b: a + b, 4)
                .map(lambda kv: (kv[0] % 2, kv[1]))
                .reduceByKey(lambda a, b: a + b, 2)
            )
            got = dict(rdd.collect())
            assert got == {0: sum(i for i in range(16) if i % 4 in (0, 2)),
                           1: sum(i for i in range(16) if i % 4 in (1, 3))}
            assert sc.metrics.jobs[-1].num_stages == 3

    def test_shuffle_reuse_across_jobs(self):
        """Spark's stage skipping: a second action on the same shuffled
        RDD must not re-run the map stage."""
        with SparkleContext(2, 2) as sc:
            shuffled = (
                sc.parallelize([(i % 2, i) for i in range(8)], 4)
                .reduceByKey(lambda a, b: a + b, 2)
            )
            shuffled.collect()
            first_stages = sc.metrics.jobs[-1].num_stages
            shuffled.count()
            second_stages = sc.metrics.jobs[-1].num_stages
            assert first_stages == 2
            assert second_stages == 1  # map stage skipped

    def test_shared_parent_stage_runs_once(self):
        with SparkleContext(2, 2) as sc:
            base = (
                sc.parallelize([(i % 2, i) for i in range(8)], 2)
                .reduceByKey(lambda a, b: a + b, 2)
            )
            merged = base.union(base.mapValues(lambda v: -v))
            merged.collect()
            job = sc.metrics.jobs[-1]
            assert job.num_stages == 2  # one shared map stage + result


class TestShuffleAccounting:
    def test_bytes_metered(self):
        with SparkleContext(2, 2) as sc:
            arr = np.ones((16, 16))
            rdd = sc.parallelize([(i, arr) for i in range(4)], 2).partitionBy(4)
            rdd.collect()
            expect = 4 * (16 + sizeof_block(arr))
            assert sc.metrics.total_shuffle_bytes == expect

    def test_collect_bytes_metered(self):
        with SparkleContext(2, 2) as sc:
            arr = np.ones(32)
            sc.parallelize([arr, arr], 2).collect()
            assert sc.metrics.jobs[-1].collect_bytes == 2 * arr.nbytes

    def test_manager_fetch_order_is_map_partition_order(self):
        sm = ShuffleManager(MemoryManager(None))
        sid = sm.new_shuffle_id()
        sm.write(sid, 1, {0: [("k", "late")]})
        sm.write(sid, 0, {0: [("k", "early")]})
        items, _nbytes, _remote = sm.fetch(sid, 0, 2)
        assert [v for _k, v in items] == ["early", "late"]

    def test_manager_missing_output_raises_fetch_failed(self):
        sm = ShuffleManager(MemoryManager(None))
        sid = sm.new_shuffle_id()
        sm.write(sid, 0, {0: []})
        with pytest.raises(ShuffleFetchFailed) as err:
            sm.fetch(sid, 0, 2)
        assert err.value.shuffle_id == sid
        assert err.value.missing == (1,)

    def test_manager_release_frees_bytes(self):
        sm = ShuffleManager(MemoryManager(None))
        sid = sm.new_shuffle_id()
        sm.write(sid, 0, {0: [(1, np.ones(10))]})
        assert sm.live_bytes() > 0
        sm.release(sid)
        assert sm.live_bytes() == 0

    def test_manager_sizes_buckets_once_and_fetch_sums_them(self, monkeypatch):
        """``write`` walks each distinct non-array value object once (an
        exact array reads its ``nbytes``); ``fetch`` looks the sizes up."""
        from repro.sparkle import shuffle

        walked = []
        monkeypatch.setattr(
            shuffle, "sizeof_block", lambda v: walked.append(v) or sizeof_block(v)
        )
        sm = ShuffleManager(MemoryManager(None))
        sid = sm.new_shuffle_id()
        tile = np.ones((4, 4))
        assert sm.write(sid, 0, {0: [(1, ("x", tile))], 1: [(2, tile), (3, tile)]}) == 441
        assert sm.write(sid, 1, {1: [(4, ("u", tile))]}) == 153
        assert [v[0] for v in walked] == ["x", "u"]
        items, nbytes, remote = sm.fetch(sid, 1, 2, remote_map_partition=lambda mp: mp == 1)
        assert [k for k, _v in items] == [2, 3, 4]
        assert (nbytes, remote) == (2 * (16 + 128) + 153, 153)
        assert sm.fetch(sid, 0, 2)[1:] == (153, 0)
        assert sm.fetch(sid, 2, 2) == ([], 0, 0)  # nothing bucketed for it
        assert len(walked) == 2
        assert (sm.total_bytes_written, sm.total_bytes_read) == (594, 594)

    def test_manager_sizes_a_shared_fan_out_value_once(self, monkeypatch):
        """23 fan-out records sharing one role tuple — across buckets —
        walk it once, and ``write`` returns the per-record formula's
        total, ``16 + sizeof_block(value)`` a record."""
        from repro.sparkle import shuffle

        walked = []
        monkeypatch.setattr(
            shuffle, "sizeof_block", lambda v: walked.append(v) or sizeof_block(v)
        )
        sm = ShuffleManager(MemoryManager(None))
        shared = ("uw", np.ones((4, 4)))
        records = [((0, j), shared) for j in range(23)]
        buckets = {0: records[:10], 1: records[10:]}
        per_record = 23 * (16 + sizeof_block(shared))
        assert sm.write(sm.new_shuffle_id(), 0, buckets) == per_record == 23 * 154
        assert walked == [shared]

    @pytest.mark.parametrize("spilled", [False, True])
    def test_manager_discards_drop_the_bucket_sizes(self, tmp_path, spilled):
        """Every way a staged output goes away — release, clear, a lost
        executor, a retried map task's overwrite — takes its per-bucket
        sizes along, whether the buckets sat in memory or on disk."""
        from repro.sparkle.durable import DurableBlockStore

        # 144 B a write: under a 300 B budget the oldest output spills
        mm = MemoryManager(300 if spilled else None, task_quantum_bytes=1)
        store = DurableBlockStore(tmp_path / "spill", sync=False) if spilled else None
        sm = ShuffleManager(mm, spill=store)

        def stage(sid):
            for mp in range(3):
                sm.write(sid, mp, {0: [(0, np.full(16, float(mp)))]})
            assert sm.num_spilled == int(spilled)
            assert set(sm._bucket_bytes) == {(sid, 0), (sid, 1), (sid, 2)}

        first, second = sm.new_shuffle_id(), sm.new_shuffle_id()
        stage(first)
        sm.release(first)
        assert sm._bucket_bytes == {}
        stage(second)
        assert sm.drop_executor_outputs(lambda mp: mp == 0) == [(second, 0)]
        assert set(sm._bucket_bytes) == {(second, 1), (second, 2)}
        sm.write(second, 1, {0: [(0, np.ones(2))], 3: [(1, np.ones(1))]})  # the retry
        assert sm._bucket_bytes[(second, 1)] == {0: 32, 3: 24}
        sm.clear()
        assert sm._bucket_bytes == {} and sm.num_spilled == 0
        assert mm.live_bytes == 0 and sm.live_bytes() == 0

    def test_manager_corrupt_spill_block_leaves_no_bucket_sizes(self, tmp_path):
        from repro.sparkle.durable import DurableBlockStore

        store = DurableBlockStore(tmp_path / "spill", sync=False)
        sm = ShuffleManager(MemoryManager(300, task_quantum_bytes=1), spill=store)
        sid = sm.new_shuffle_id()
        for mp in range(3):
            sm.write(sid, mp, {0: [(0, np.ones(16))]})
        path = store.blocks_dir / store._filename(repr(("shuffle", sid, 0)))
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ShuffleFetchFailed) as err:
            sm.fetch(sid, 0, 3)
        assert err.value.missing == (0,)
        assert set(sm._bucket_bytes) == {(sid, 1), (sid, 2)}
        assert sm.total_bytes_read == 0

    def test_spilled_map_outputs_report_the_same_bytes_read(self):
        """A budget that spills map outputs changes where the buckets
        wait, not what a reducer is charged for them."""
        from repro.core.api import run_gep
        from repro.core.gep import FloydWarshallGep

        table = np.random.default_rng(3).integers(1, 9, (16, 16)).astype(float)
        per_stage = {}
        for budget in (None, 2048):
            with SparkleContext(2, 1, memory_budget_bytes=budget) as sc:
                run_gep(FloydWarshallGep(), table, engine="spark", r=4, sc=sc)
                assert (sc.metrics.shuffle_blocks_spilled > 0) == (budget is not None)
                per_stage[budget] = [
                    (stage.shuffle_bytes_read, stage.shuffle_bytes_remote)
                    for job in sc.metrics.jobs
                    for stage in job.stages
                ]
        assert per_stage[2048] == per_stage[None]
        assert sum(read for read, _remote in per_stage[None]) > 0


class TestFailureRecovery:
    def test_injected_failure_recovers_via_lineage(self):
        # Every first attempt dies; lineage recomputation must still
        # produce the exact fault-free answer.
        plan = FaultPlan(7, [FaultSpec("kill", rate=1.0)])
        with SparkleContext(2, 2, fault_plan=plan) as sc:
            got = dict(
                sc.parallelize([(i % 2, i) for i in range(8)], 3)
                .reduceByKey(lambda a, b: a + b, 2)
                .collect()
            )
            assert got == {0: 0 + 2 + 4 + 6, 1: 1 + 3 + 5 + 7}
            assert sc.metrics.tasks_retried >= 4
            assert plan.fired()["kill"] >= 4

    def test_persistent_failure_aborts(self):
        plan = FaultPlan(3, [FaultSpec("kill", rate=1.0, max_attempt=99)])
        with SparkleContext(1, 1, fault_plan=plan) as sc:
            sc._scheduler.max_task_retries = 2
            with pytest.raises(JobAborted):
                sc.parallelize([1], 1).collect()

    def test_user_exception_not_retried(self):
        attempts = []

        def boom(x):
            attempts.append(x)
            raise RuntimeError("user bug")

        with SparkleContext(1, 1) as sc:
            with pytest.raises(TaskError):
                sc.parallelize([1], 1).map(boom).collect()
        assert len(attempts) == 1


class TestExecutorPoolSettle:
    """``run_tasks``'s contract: exceptions propagate only after every
    submitted task settles, so a failing task cannot leave straggler
    threads mutating shared (shuffle) state after the raise."""

    def test_failure_settles_before_propagating(self):
        pool = ExecutorPool(2, 1)
        writes: list[int] = []
        lock = threading.Lock()
        started = threading.Event()

        def sleeper(i):
            def run():
                started.set()
                time.sleep(0.2)
                with lock:
                    writes.append(i)
            return run

        def failer():
            started.wait(2.0)  # guarantee a concurrent mutator is running
            raise RuntimeError("boom")

        try:
            with pytest.raises(RuntimeError, match="boom"):
                pool.run_tasks([sleeper(1), failer, sleeper(2), sleeper(3)])
            settled = list(writes)
            # Nothing may keep mutating after the exception surfaced.
            time.sleep(0.3)
            assert writes == settled
        finally:
            pool.shutdown()

    def test_pending_tasks_cancelled_on_failure(self):
        # 2 slots, 1 instant failure, 5 slow writers: the writers that
        # have not started when the failure surfaces must be cancelled,
        # not run to completion.
        pool = ExecutorPool(2, 1)
        writes: list[int] = []
        lock = threading.Lock()

        def sleeper(i):
            def run():
                time.sleep(0.3)
                with lock:
                    writes.append(i)
            return run

        def failer():
            raise RuntimeError("early")

        try:
            with pytest.raises(RuntimeError, match="early"):
                pool.run_tasks([failer] + [sleeper(i) for i in range(5)])
            assert len(writes) < 5  # at least one pending task never ran
        finally:
            pool.shutdown()

    def test_sequential_mode_runs_in_order(self):
        pool = ExecutorPool(2, 2)
        order: list[int] = []

        def task(i):
            def run():
                order.append(i)
                return i
            return run

        try:
            assert pool.run_tasks([task(i) for i in range(6)], sequential=True) == list(
                range(6)
            )
            assert order == list(range(6))
        finally:
            pool.shutdown()

    def test_placement_is_partition_mod_executors(self):
        pool = ExecutorPool(3, 1)
        assert [pool.executor_for(p) for p in range(8)] == [0, 1, 2, 0, 1, 2, 0, 1]


class TestBroadcastAndStorage:
    def test_broadcast_value_and_bytes(self):
        with SparkleContext(4, 1) as sc:
            arr = np.ones(128)
            bc = sc.broadcast(arr)
            out = sc.parallelize(range(4), 2).map(lambda x: bc.value.sum()).collect()
            assert out == [128.0] * 4
            assert sc.metrics.broadcast_bytes == arr.nbytes * 4

    def test_broadcast_destroy(self):
        with SparkleContext(2, 1) as sc:
            bc = sc.broadcast([1, 2])
            bc.destroy()
            with pytest.raises(RuntimeError):
                _ = bc.value

    def test_shared_storage_roundtrip_and_accounting(self):
        with SparkleContext(2, 1) as sc:
            arr = np.ones((8, 8))
            sc.shared_storage.put(("pivot", 0), arr)
            got = sc.shared_storage.get(("pivot", 0))
            np.testing.assert_array_equal(got, arr)
            assert sc.metrics.storage_bytes_written == arr.nbytes
            assert sc.metrics.storage_bytes_read == arr.nbytes
            assert sc.shared_storage.contains(("pivot", 0))
            assert len(sc.shared_storage) == 1

    def test_shared_storage_missing_key(self):
        with SparkleContext(1, 1) as sc:
            # typed (and still a KeyError for dict-idiom callers)
            with pytest.raises(BlockNotFoundError):
                sc.shared_storage.get("nope")
            with pytest.raises(KeyError):
                sc.shared_storage.get("nope")

    def test_shared_storage_live_bytes_running_total(self):
        with SparkleContext(1, 1) as sc:
            storage = sc.shared_storage
            a, b = np.ones(8), np.ones(64)
            storage.put("x", a)
            storage.put("y", a)
            assert storage.live_bytes == 2 * a.nbytes
            storage.put("x", b)  # overwrite releases the old bytes
            assert storage.live_bytes == a.nbytes + b.nbytes
            storage.clear()
            assert storage.live_bytes == 0

    def test_block_manager_live_bytes_tracks_eviction(self):
        from repro.sparkle.storage import BlockManager

        arr = np.ones(64)
        blk = sizeof_block(arr)  # puts size each item, not the list
        bm = BlockManager(MemoryManager(3 * blk))
        for rdd_id in range(5):
            bm.put(rdd_id, 0, [arr])
        assert bm.live_bytes <= 3 * blk
        survivors = [i for i in range(5) if bm.contains(i, 0)]
        assert bm.live_bytes == len(survivors) * blk
        bm.put(1, 0, [arr])  # re-insert then overwrite in place
        before = bm.live_bytes
        bm.put(1, 0, [arr])
        assert bm.live_bytes == before
        bm.evict_rdd(1)
        assert bm.live_bytes == before - blk


class TestContextLifecycle:
    def test_stopped_context_rejects_work(self):
        sc = SparkleContext(1, 1)
        sc.stop()
        with pytest.raises(RuntimeError):
            sc.parallelize([1])

    def test_default_parallelism_rule(self):
        with SparkleContext(4, 8) as sc:
            assert sc.default_parallelism == 2 * 4 * 8  # paper's 2x cores
        with SparkleContext(2, 2, default_parallelism=5) as sc:
            assert sc.parallelize(range(20)).getNumPartitions() == 5

    def test_total_cores(self):
        with SparkleContext(3, 4) as sc:
            assert sc.total_cores == 12

    def test_metrics_summary_keys(self):
        with SparkleContext(1, 1) as sc:
            sc.parallelize([1], 1).collect()
            summary = sc.metrics.summary()
            for key in ("jobs", "stages", "tasks", "shuffle_bytes",
                        "remote_shuffle_bytes"):
                assert key in summary

    def test_remote_shuffle_accounting(self):
        import numpy as np

        # 1 executor: everything local.  4 executors: most fetches cross.
        def run(executors):
            with SparkleContext(executors, 1) as sc:
                data = [(i, np.ones(32)) for i in range(16)]
                sc.parallelize(data, 4).partitionBy(4).collect()
                return (
                    sc.metrics.total_remote_shuffle_bytes,
                    sc.metrics.total_shuffle_bytes,
                )

        remote1, total1 = run(1)
        assert remote1 == 0 and total1 > 0
        remote4, total4 = run(4)
        assert 0 < remote4 <= total4


class TestDeterminism:
    @pytest.mark.parametrize("executors,cores", [(1, 1), (2, 2), (4, 4)])
    def test_result_independent_of_cluster_shape(self, executors, cores):
        def run():
            with SparkleContext(executors, cores) as sc:
                return (
                    sc.parallelize([(i % 5, float(i)) for i in range(50)], 7)
                    .reduceByKey(lambda a, b: a + b, 4)
                    .collect()
                )

        assert sorted(run()) == sorted(
            [(k, float(sum(i for i in range(50) if i % 5 == k))) for k in range(5)]
        )

    def test_repeated_runs_identical(self):
        def run():
            with SparkleContext(3, 2) as sc:
                return (
                    sc.parallelize([(i % 4, i) for i in range(40)], 8)
                    .groupByKey(4)
                    .mapValues(tuple)
                    .collect()
                )

        assert run() == run()


# The flat views, key for key in order: report JSON, bench children and
# ``request --stats`` read them by name, so a rename or a dropped counter
# is an interface change and has to show up here.
ENGINE_KEYS = """
jobs stages tasks shuffle_bytes remote_shuffle_bytes collect_bytes
broadcast_bytes storage_bytes_written storage_bytes_read
tasks_retried partitions_recomputed executor_loss_events
transient_io_failures
torn_writes_detected corrupt_blocks_detected
durable_puts durable_gets durable_bytes_written durable_bytes_read
journal_appends journal_entries_replayed resumed_from_iteration
spill_bytes_written spill_bytes_read blocks_spilled shuffle_blocks_spilled
spill_reads admission_waits admission_wait_seconds pressure_transitions
mem_squeezes strategy_degradations forced_grants shuffle_partial_cleanups
execution_peak_bytes storage_peak_bytes shuffles_released cached_rdds_retired
backend kernel_offloads dispatch_round_trips worker_kernel_runs
heartbeats_missed workers_respawned worker_crashes deadlines_exceeded
poison_tasks backend_degradations
broadcast_count storage_puts storage_gets
""".split()
SERVICE_KEYS = """
requests_received requests_admitted requests_queued requests_shed
draining_sheds requests_completed requests_failed deadline_cancelled
single_flight_coalesced cache_hits cache_misses cache_hit_rate
cache_evictions cache_invalidations cache_integrity_failures
engine_passes retries
journal_admits journal_settles journal_torn_records journal_replayed
journal_compactions journal_records_compacted results_rehydrated
idempotent_replays resume_coalesced
frames_rejected client_disconnects stale_sockets_reclaimed inputs_built
quota_rejections rate_limited brownout_sheds brownout_degrades
brownout_transition_count brownout_level per_tenant
""".split()


class TestCounterRegistry:
    @pytest.mark.parametrize(
        "cls,golden,groups,renamed,traces",
        [
            (
                EngineMetrics,
                ENGINE_KEYS,
                ["plan", "recovery", "durability", "memory", "data_plane",
                 "supervision"],
                {},
                (),
            ),
            (
                ServiceMetrics,
                SERVICE_KEYS,
                ["admission", "completion", "cache", "engine", "journal",
                 "socket", "tenancy"],
                {},
                ("brownout_transitions",),
            ),
        ],
    )
    def test_every_counter_is_declared_once_and_reported(
        self, cls, golden, groups, renamed, traces
    ):
        flat = cls().summary()
        assert list(flat) == golden
        # every field is a counter of exactly one known group and shows
        # in the flat view — but for the traces, which carry no group
        for f in dataclasses.fields(cls):
            if f.name in traces:
                assert not f.metadata
                continue
            assert f.metadata["group"] in groups, f.name
            assert renamed.get(f.name, f.name) in flat, f.name
        # the group views partition the flat view (derived entries —
        # the engine's plan-shape header, cache_hit_rate — included)
        views = [cls().summary(group) for group in groups]
        assert all(views)
        assert sum(len(view) for view in views) == len(flat)
        assert {k: v for view in views for k, v in view.items()} == flat
        assert [c.key for c in cls.schema()] == golden

    def test_components_built_bare_count_into_a_private_registry(self, tmp_path):
        store = DurableBlockStore(tmp_path)
        store.put("k", [1, 2])
        assert store.get("k") == [1, 2]
        assert store._metrics.durable_puts == store._metrics.durable_gets == 1
        # two 80 B blocks against 100 B: the first is evicted to the store
        blocks = BlockManager(MemoryManager(100), spill=store)
        blocks.put(0, 0, [np.ones(10)])
        blocks.put(0, 1, [np.ones(10)])
        assert blocks._metrics.blocks_spilled == 1
        assert np.array_equal(blocks.get(0, 0)[0], np.ones(10))
        assert blocks._metrics.spill_reads == 1
        unbounded = BlockManager(MemoryManager(None))
        unbounded.put(1, 0, ["x"])
        assert unbounded.get(1, 0) == ["x"]
        assert Broadcast(0, np.ones(4), 3).value.sum() == 4.0
