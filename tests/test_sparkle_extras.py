"""Engine extras: cache eviction and stress."""

import numpy as np

from repro.sparkle import SparkleContext


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
