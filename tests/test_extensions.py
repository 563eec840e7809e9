"""Extensions: parenthesis DP, checkpointing."""

import numpy as np
import pytest

from repro.core.parenthesis import (
    matrix_chain_order,
    parenthesis_solve,
    render_parenthesization,
)
from repro.sparkle import SparkleContext
from repro.workloads import random_digraph_weights


def _brute_force_chain(dims):
    """All parenthesizations by recursion (exponential; tiny n only)."""

    def best(i, j):
        if j - i == 1:
            return 0.0
        return min(
            best(i, k) + best(k, j) + dims[i] * dims[k] * dims[j]
            for k in range(i + 1, j)
        )

    return best(0, len(dims) - 1)


class TestParenthesis:
    @pytest.mark.parametrize("method", ["iterative", "recursive"])
    def test_matrix_chain_matches_brute_force(self, method):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = rng.integers(2, 7)
            dims = rng.integers(1, 12, size=m + 1).tolist()
            cost, bracketing = matrix_chain_order(dims, method=method)
            assert cost == pytest.approx(_brute_force_chain(dims))
            assert bracketing.count("A") == m

    def test_clrs_textbook_instance(self):
        # CLRS 15.2: dims (30,35,15,5,10,20,25) -> 15125.
        cost, _ = matrix_chain_order([30, 35, 15, 5, 10, 20, 25])
        assert cost == 15125

    @pytest.mark.parametrize("method", ["iterative", "recursive"])
    def test_methods_agree(self, method):
        rng = np.random.default_rng(5)
        dims = rng.integers(1, 9, size=9).tolist()
        it, _ = matrix_chain_order(dims, method="iterative")
        other, _ = matrix_chain_order(dims, method=method)
        assert it == pytest.approx(other)

    def test_render_counts_leaves(self):
        _, split = parenthesis_solve(4, lambda i, ks, j: 0.0)
        text = render_parenthesization(split, 0, 3)
        assert text.count("A") == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            parenthesis_solve(1, lambda i, ks, j: 0.0)
        with pytest.raises(ValueError):
            parenthesis_solve(4, lambda i, ks, j: 0.0, method="magic")
        with pytest.raises(ValueError):
            matrix_chain_order([5])
        with pytest.raises(ValueError):
            matrix_chain_order([5, -1])


class TestCheckpointing:
    def test_checkpoint_truncates_lineage(self):
        with SparkleContext(2, 2) as sc:
            rdd = sc.parallelize(range(8), 2)
            for _ in range(4):
                rdd = rdd.map(lambda x: x + 1)
            deep = rdd.to_debug_string().count("\n")
            cp = rdd.checkpoint()
            assert cp.to_debug_string().count("\n") == 0
            assert cp.collect() == [x + 4 for x in range(8)]

    def test_driver_checkpoint_every(self):
        from repro.core import floyd_warshall as fw

        w = random_digraph_weights(18, 0.3, seed=9)
        ref = fw(w)
        with SparkleContext(2, 2) as sc:
            got = fw(w, engine="spark", sc=sc, r=6, strategy="cb",
                     checkpoint_every=2)
        np.testing.assert_allclose(got, ref)

    def test_checkpoint_every_validation(self):
        from repro.core.dpspark import GepSparkSolver, make_kernel
        from repro.core.gep import FloydWarshallGep

        spec = FloydWarshallGep()
        with SparkleContext(1, 1) as sc:
            with pytest.raises(ValueError):
                GepSparkSolver(
                    spec, sc, r=2, kernel=make_kernel(spec, "iterative"),
                    checkpoint_every=0,
                )

    def test_checkpoint_preserves_partitioner(self):
        from repro.sparkle import HashPartitioner

        with SparkleContext(2, 2) as sc:
            p = HashPartitioner(4)
            kv = sc.parallelize([(i, i) for i in range(8)], 2).partitionBy(
                partitioner=p
            )
            cp = kv.checkpoint()
            assert cp.partitioner == p
            assert cp.partitionBy(partitioner=p) is cp
