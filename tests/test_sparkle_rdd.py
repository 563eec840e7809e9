"""sparkle engine: RDD transformation and action semantics."""

import sys
import threading
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparkle import (
    GridPartitioner,
    HashPartitioner,
    RangePartitioner,
    SparkleContext,
)
from repro.sparkle import storage
from repro.util import sizeof_block


@pytest.fixture
def sc():
    with SparkleContext(num_executors=2, cores_per_executor=2) as ctx:
        yield ctx


class TestBasicTransformations:
    def test_map(self, sc):
        assert sc.parallelize(range(5), 2).map(lambda x: x * 2).collect() == [
            0, 2, 4, 6, 8,
        ]

    def test_filter(self, sc):
        out = sc.parallelize(range(10), 3).filter(lambda x: x % 2 == 0).collect()
        assert out == [0, 2, 4, 6, 8]

    def test_flat_map(self, sc):
        out = sc.parallelize([1, 2], 1).flatMap(lambda x: [x] * x).collect()
        assert out == [1, 2, 2]

    def test_map_partitions_with_index(self, sc):
        rdd = sc.parallelize(range(6), 3)
        out = rdd.map_partitions(lambda it, pid: [(pid, sum(it))]).collect()
        assert out == [(0, 1), (1, 5), (2, 9)]

    def test_glom_partition_structure(self, sc):
        parts = sc.parallelize(range(6), 3).glom().collect()
        assert parts == [[0, 1], [2, 3], [4, 5]]

    def test_union_preserves_order(self, sc):
        a = sc.parallelize([1, 2], 2)
        b = sc.parallelize([3], 1)
        assert a.union(b).collect() == [1, 2, 3]
        assert sc.union([a, b, a]).collect() == [1, 2, 3, 1, 2]

    def test_keys_values_keyby(self, sc):
        kv = sc.parallelize([(1, "a"), (2, "b")], 1)
        assert kv.keys().collect() == [1, 2]
        assert kv.values().collect() == ["a", "b"]
        assert sc.parallelize([3, 4], 1).keyBy(lambda x: x % 2).collect() == [
            (1, 3), (0, 4),
        ]

    def test_map_values_preserves_partitioner(self, sc):
        p = HashPartitioner(3)
        kv = sc.parallelize([(i, i) for i in range(9)], 2).partitionBy(partitioner=p)
        mapped = kv.mapValues(lambda v: v + 1)
        assert mapped.partitioner == p
        assert mapped.partitionBy(partitioner=p) is mapped

    def test_distinct(self, sc):
        out = sc.parallelize([1, 2, 2, 3, 1], 3).distinct(2).collect()
        assert sorted(out) == [1, 2, 3]

    def test_lazy_until_action(self, sc):
        evil = sc.parallelize([1], 1).map(lambda x: 1 / 0)
        # No exception until an action runs.
        with pytest.raises(Exception):
            evil.collect()


class TestPairOperations:
    def test_reduce_by_key(self, sc):
        kv = sc.parallelize([(i % 3, i) for i in range(12)], 4)
        got = dict(kv.reduceByKey(lambda a, b: a + b, 3).collect())
        assert got == {0: 0 + 3 + 6 + 9, 1: 1 + 4 + 7 + 10, 2: 2 + 5 + 8 + 11}

    def test_group_by_key(self, sc):
        kv = sc.parallelize([("a", 1), ("b", 2), ("a", 3)], 2)
        got = {k: sorted(v) for k, v in kv.groupByKey(2).collect()}
        assert got == {"a": [1, 3], "b": [2]}

    def test_combine_by_key_three_functions(self, sc):
        kv = sc.parallelize([("x", 1), ("x", 2), ("y", 5)], 3)
        got = dict(
            kv.combineByKey(
                lambda v: [v],
                lambda acc, v: acc + [v],
                lambda a, b: a + b,
                2,
            ).collect()
        )
        assert sorted(got["x"]) == [1, 2] and got["y"] == [5]

    def test_fold_by_key(self, sc):
        kv = sc.parallelize([("a", 2), ("a", 3), ("b", 4)], 2)
        got = dict(kv.foldByKey(1, lambda a, b: a * b, 2).collect())
        assert got == {"a": 6, "b": 4}

    def test_join(self, sc):
        left = sc.parallelize([(1, "a"), (2, "b"), (1, "c")], 2)
        right = sc.parallelize([(1, "x"), (3, "z")], 2)
        got = sorted(left.join(right).collect())
        assert got == [(1, ("a", "x")), (1, ("c", "x"))]

    def test_cogroup(self, sc):
        left = sc.parallelize([(1, "a")], 1)
        right = sc.parallelize([(1, "x"), (1, "y"), (2, "w")], 2)
        got = dict(left.cogroup(right, 2).collect())
        assert got[1] == (["a"], ["x", "y"])
        assert got[2] == ([], ["w"])

    def test_count_by_key_and_lookup(self, sc):
        kv = sc.parallelize([("a", 1), ("a", 2), ("b", 9)], 2)
        assert kv.countByKey() == {"a": 2, "b": 1}
        assert kv.lookup("a") == [1, 2]

    def test_collect_as_map(self, sc):
        assert sc.parallelize([(1, "a")], 1).collectAsMap() == {1: "a"}


class TestActions:
    def test_count_and_first_take(self, sc):
        rdd = sc.parallelize(range(10), 4)
        assert rdd.count() == 10
        assert rdd.first() == 0
        assert rdd.take(3) == [0, 1, 2]
        assert rdd.take(99) == list(range(10))

    def test_first_empty_raises(self, sc):
        with pytest.raises(ValueError):
            sc.empty_rdd().first()

    def test_reduce(self, sc):
        assert sc.parallelize(range(1, 6), 3).reduce(lambda a, b: a * b) == 120

    def test_reduce_with_empty_partitions(self, sc):
        assert sc.parallelize([5], 4).reduce(lambda a, b: a + b) == 5

    def test_reduce_empty_raises(self, sc):
        with pytest.raises(ValueError):
            sc.empty_rdd().reduce(lambda a, b: a + b)

    def test_fold(self, sc):
        assert sc.parallelize(range(5), 2).fold(0, lambda a, b: a + b) == 10

    def test_foreach_side_effect(self, sc):
        seen = []
        sc.parallelize(range(4), 2).foreach(seen.append)
        assert sorted(seen) == [0, 1, 2, 3]


class TestPartitioners:
    def test_hash_deterministic_across_instances(self):
        a, b = HashPartitioner(7), HashPartitioner(7)
        for key in [(1, 2), "abc", 42]:
            assert a.partition(key) == b.partition(key)
            assert 0 <= a.partition(key) < 7

    def test_equality_semantics(self):
        assert HashPartitioner(4) == HashPartitioner(4)
        assert HashPartitioner(4) != HashPartitioner(5)
        assert HashPartitioner(4) != GridPartitioner(4, 2)

    def test_range_partitioner_monotone(self):
        p = RangePartitioner(4, 100)
        ids = [p.partition(k) for k in range(100)]
        assert ids == sorted(ids)
        assert set(ids) == {0, 1, 2, 3}

    def test_grid_partitioner_rows_cluster(self):
        p = GridPartitioner(4, 8)
        # keys in the same grid row map to nearby partitions
        same_row = {p.partition((2, j)) for j in range(8)}
        assert len(same_row) <= 2

    def test_grid_partitioner_fallback_hash(self):
        p = GridPartitioner(4, 8)
        assert 0 <= p.partition("not-a-tile") < 4

    def test_validation(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)
        with pytest.raises(ValueError):
            RangePartitioner(2, 0)
        with pytest.raises(ValueError):
            GridPartitioner(2, 0)

    def test_partition_by_skips_same_partitioner(self, sc):
        p = HashPartitioner(4)
        kv = sc.parallelize([(i, i) for i in range(8)], 2).partitionBy(partitioner=p)
        assert kv.partitionBy(partitioner=p) is kv
        other = kv.partitionBy(partitioner=HashPartitioner(5))
        assert other is not kv

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_grid_placement_is_the_crc32_table(self, n):
        """Memoised placement is the stable hash's, in any arrival order:
        a fresh partitioner, one that saw the grid forwards, and one that
        saw it backwards all place the 24x24 grid as ``crc32(repr(k)) % n``."""
        grid = [(i, j) for i in range(24) for j in range(24)]
        table = [zlib.crc32(repr(k).encode()) % n for k in grid]
        forwards, backwards = HashPartitioner(n), HashPartitioner(n)
        assert [forwards.partition(k) for k in grid] == table
        assert [backwards.partition(k) for k in grid[::-1]] == table[::-1]
        for p in (forwards, backwards, HashPartitioner(n)):
            assert [p.partition(k) for k in grid] == table

    @pytest.mark.parametrize("n", [7, 8])
    def test_equal_keys_that_print_apart_place_apart(self, n):
        """``1 == 1.0 == True`` and ``(1, 2) == (1.0, 2)``, but each prints —
        hence hashes — differently: the memo never lends one's placement
        to another, whichever arrives first."""
        keys = [1, 1.0, True, (1, 2), (1.0, 2)]
        want = [zlib.crc32(repr(k).encode()) % n for k in keys]
        assert len(set(want[:3])) == 3 and want[3] != want[4]  # discriminating
        for order in (keys, keys[::-1]):
            p = HashPartitioner(n)
            got = {repr(k): p.partition(k) for k in order}
            assert [got[repr(k)] for k in keys] == want
            assert [p.partition(k) for k in keys] == want

    def test_shared_memo_under_thread_contention(self):
        """Tasks of one stage share their partitioner: eight threads, each
        placing the grid in its own order with a tiny switch interval,
        all read ``crc32(repr(k)) % n`` — a racing first placement writes
        the same value twice, never a wrong one."""
        n, grid = 5, [(i, j) for i in range(24) for j in range(24)]
        table = {k: zlib.crc32(repr(k).encode()) % n for k in grid}
        shared = HashPartitioner(n)
        seen = [None] * 8

        def place(t):
            order = grid[t % 2 :: 2] + grid[(t + 1) % 2 :: 2]
            if t % 3:
                order.reverse()
            seen[t] = {k: shared.partition(k) for k in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=place, args=(t,)) for t in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert all(got == table for got in seen)

    def test_memoising_partitioner_stays_equal(self, sc):
        """Equality reads the parameters, not the memo: a partitioner that
        has placed keys still equals (and hashes like) a fresh one, so
        re-partitioning by it is still no stage at all."""
        used = HashPartitioner(4)
        kv = sc.parallelize([((i, i), i) for i in range(8)], 2).partitionBy(
            partitioner=used
        )
        kv.collect()
        fresh = HashPartitioner(4)
        assert used == fresh and hash(used) == hash(fresh)
        again = kv.partitionBy(partitioner=fresh)
        assert again is kv
        again.collect()
        assert sc.metrics.jobs[-1].num_stages == 1  # the map output is reused
        kv.partitionBy(partitioner=HashPartitioner(5)).collect()
        assert sc.metrics.jobs[-1].num_stages == 2  # the contrast: a new shuffle
        assert GridPartitioner(4, 2) == GridPartitioner(4, 2) != GridPartitioner(4, 3)
        assert RangePartitioner(4, 9) == RangePartitioner(4, 9) != RangePartitioner(4, 8)
        assert HashPartitioner(4) != RangePartitioner(4, 4)

    def test_partition_by_places_by_hash(self, sc):
        p = HashPartitioner(4)
        kv = sc.parallelize([(i, i) for i in range(16)], 3).partitionBy(partitioner=p)
        for pid, items in enumerate(kv.glom().collect()):
            for k, _v in items:
                assert p.partition(k) == pid

    def test_map_task_memo_places_equal_keys_that_print_apart_apart(self, sc):
        """A map task reads the placement memo inline, a hit only for an
        exact grid key: ``(1.0, 2)``, ``(True, 2)`` and a namedtuple
        ``(1, 2)`` arriving after ``(1, 2)`` was memoised still land where
        ``crc32(repr(k)) % n`` puts them."""
        import collections

        pair = collections.namedtuple("pair", "i j")
        n = 7
        keys = [(1, 2), (1.0, 2), (True, 2), pair(1, 2), (1, 2.0), 5]
        want = [zlib.crc32(repr(k).encode()) % n for k in keys]
        assert len(set(want)) > 2  # discriminating
        p = HashPartitioner(n)
        p.partition((1, 2))  # memoised before the shuffle runs
        kv = sc.parallelize([(k, i) for i, k in enumerate(keys)], 2)
        placed = {
            repr(k): pid
            for pid, items in enumerate(kv.partitionBy(partitioner=p).glom().collect())
            for k, _v in items
        }
        assert [placed[repr(k)] for k in keys] == want


class TestCaching:
    def test_cache_avoids_recompute(self, sc):
        calls = []

        def trace(x):
            calls.append(x)
            return x

        rdd = sc.parallelize(range(4), 2).map(trace).cache()
        rdd.collect()
        rdd.collect()
        assert len(calls) == 4  # second collect served from cache

    def test_unpersist_recomputes(self, sc):
        calls = []
        rdd = sc.parallelize(range(2), 1).map(lambda x: calls.append(x) or x).cache()
        rdd.collect()
        rdd.unpersist()
        rdd.collect()
        assert len(calls) == 4


    def test_cached_shuffled_partition_is_sized_like_its_records(
        self, sc, monkeypatch
    ):
        """A cached ``partitionBy`` partition takes its bytes from the
        fetch that read it — no walk over the values — and records
        exactly ``sum(sizeof_block(r) for r in items)``."""
        records = [((i, i % 3), ("x", np.arange(i + 1.0))) for i in range(12)]
        records += [("s", 5), (7, [1, 2.5, "ab"]), (2.0, {"k": np.ones(3)})]
        shuffled = sc.parallelize(records, 3).partitionBy(4).cache()

        def no_walk(_value):
            raise AssertionError("the block manager walked a fetched partition")

        monkeypatch.setattr(storage, "sizeof_block", no_walk)
        shuffled.collect()
        blocks = sc._block_manager
        for split in range(4):
            items = blocks.get(shuffled.id, split)
            assert items is not None
            assert blocks._bytes[(shuffled.id, split)] == sum(
                sizeof_block(r) for r in items
            )


class TestDebugString:
    def test_lineage_rendering(self, sc):
        rdd = (
            sc.parallelize(range(4), 2)
            .map(lambda x: (x, x))
            .reduceByKey(lambda a, b: a + b, 2)
        )
        text = rdd.to_debug_string()
        assert "ShuffledRDD" in text and "ParallelCollectionRDD" in text


@given(
    data=st.lists(st.integers(min_value=-50, max_value=50), max_size=40),
    parts=st.integers(min_value=1, max_value=6),
    mod=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=30, deadline=None)
def test_property_reduce_by_key_matches_python(data, parts, mod):
    with SparkleContext(2, 2) as sc:
        kv = sc.parallelize([(x % mod, x) for x in data], parts)
        got = dict(kv.reduceByKey(lambda a, b: a + b, 3).collect())
    expect: dict = {}
    for x in data:
        expect[x % mod] = expect.get(x % mod, 0) + x
    assert got == expect


@given(
    data=st.lists(st.integers(), max_size=30),
    parts=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=30, deadline=None)
def test_property_collect_preserves_order(data, parts):
    with SparkleContext(2, 2) as sc:
        assert sc.parallelize(data, parts).collect() == data
