"""Engine extras: sortByKey, sample, coalesce, cache eviction, stress."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparkle import SparkleContext


@pytest.fixture
def sc():
    with SparkleContext(2, 2) as ctx:
        yield ctx


class TestSortByKey:
    def test_ascending_descending(self, sc):
        kv = sc.parallelize([(3, "c"), (1, "a"), (2, "b")], 2)
        assert kv.sortByKey(num_partitions=2).collect() == [
            (1, "a"), (2, "b"), (3, "c"),
        ]
        assert kv.sortByKey(ascending=False, num_partitions=2).collect() == [
            (3, "c"), (2, "b"), (1, "a"),
        ]

    def test_empty(self, sc):
        assert sc.empty_rdd().sortByKey().collect() == []

    def test_duplicate_keys_kept(self, sc):
        kv = sc.parallelize([(1, "x"), (1, "y"), (0, "z")], 3)
        out = kv.sortByKey(num_partitions=2).collect()
        assert [k for k, _ in out] == [0, 1, 1]
        assert {v for _, v in out} == {"x", "y", "z"}

    @given(
        data=st.lists(st.integers(min_value=-100, max_value=100), max_size=40),
        parts=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_sorted(self, data, parts):
        with SparkleContext(2, 2) as ctx:
            kv = ctx.parallelize([(x, x) for x in data], parts)
            got = [k for k, _ in kv.sortByKey(num_partitions=3).collect()]
        assert got == sorted(data)


class TestSample:
    def test_fraction_bounds(self, sc):
        with pytest.raises(ValueError):
            sc.parallelize([1]).sample(1.5)

    def test_extremes(self, sc):
        rdd = sc.parallelize(range(100), 4)
        assert rdd.sample(0.0).count() == 0
        assert rdd.sample(1.0).count() == 100

    def test_deterministic_per_seed(self, sc):
        rdd = sc.parallelize(range(500), 4)
        a = rdd.sample(0.2, seed=7).collect()
        b = rdd.sample(0.2, seed=7).collect()
        c = rdd.sample(0.2, seed=8).collect()
        assert a == b
        assert a != c


class TestCoalesce:
    def test_merges_without_shuffle(self, sc):
        rdd = sc.parallelize(range(20), 8).coalesce(3)
        assert rdd.getNumPartitions() == 3
        assert rdd.collect() == list(range(20))
        sc.metrics.jobs.clear()
        rdd.count()
        assert sc.metrics.jobs[-1].num_stages == 1  # narrow

    def test_cannot_exceed_parents(self, sc):
        rdd = sc.parallelize(range(4), 2).coalesce(10)
        assert rdd.getNumPartitions() == 2

    def test_validation(self, sc):
        with pytest.raises(ValueError):
            sc.parallelize([1]).coalesce(0)


class TestCacheEviction:
    def test_lru_eviction_recomputes(self):
        calls = []
        with SparkleContext(1, 1, memory_budget_bytes=1500) as ctx:
            rdd = (
                ctx.parallelize(range(6), 3)
                .map(lambda x: (calls.append(x), np.ones(32) * x)[1])
                .persist("MEMORY_ONLY")
            )
            rdd.count()
            first = len(calls)
            assert ctx._block_manager.evictions > 0
            rdd.count()
            assert len(calls) > first  # evicted partitions recomputed

        # Results stay correct regardless of eviction.
        with SparkleContext(1, 1, memory_budget_bytes=1500) as ctx:
            rdd = (
                ctx.parallelize(range(6), 3)
                .map(lambda x: x * 2)
                .persist("MEMORY_ONLY")
            )
            assert rdd.collect() == rdd.collect() == [x * 2 for x in range(6)]

    def test_unbounded_cache_never_evicts(self):
        with SparkleContext(1, 1) as ctx:
            rdd = ctx.parallelize(range(4), 2).map(lambda x: np.ones(64)).cache()
            rdd.count()
            rdd.count()
            assert ctx._block_manager.evictions == 0
            assert ctx._block_manager.live_bytes > 0

    def test_oversized_block_not_cached(self):
        with SparkleContext(1, 1, memory_budget_bytes=100) as ctx:
            rdd = (
                ctx.parallelize([0], 1)
                .map(lambda x: np.ones(1000))
                .persist("MEMORY_ONLY")
            )
            rdd.count()
            assert ctx._block_manager.num_blocks == 0


class TestStress:
    def test_many_partitions_many_keys(self):
        with SparkleContext(4, 4) as ctx:
            n = 5000
            got = dict(
                ctx.parallelize([(i % 97, i) for i in range(n)], 64)
                .reduceByKey(lambda a, b: a + b, 32)
                .collect()
            )
        expect = {}
        for i in range(n):
            expect[i % 97] = expect.get(i % 97, 0) + i
        assert got == expect

    def test_deep_narrow_chain(self):
        with SparkleContext(2, 2) as ctx:
            rdd = ctx.parallelize(range(10), 2)
            for _ in range(60):
                rdd = rdd.map(lambda x: x + 1)
            assert rdd.collect() == [x + 60 for x in range(10)]

    def test_many_sequential_shuffles(self):
        with SparkleContext(2, 2) as ctx:
            rdd = ctx.parallelize([(i % 4, 1) for i in range(32)], 4)
            for _ in range(8):
                rdd = rdd.reduceByKey(lambda a, b: a + b, 4).mapValues(lambda v: v)
            got = dict(rdd.collect())
        assert got == {k: 8 for k in range(4)}
