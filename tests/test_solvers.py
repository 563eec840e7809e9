"""Public solver APIs: floyd_warshall, gaussian_*, transitive_closure,
semiring_closure, run_gep plumbing."""

import numpy as np
import pytest

from repro.baselines import (
    boolean_closure_by_squaring,
    networkx_apsp,
    numpy_floyd_warshall,
    numpy_gaussian_solve,
    scipy_shortest_paths,
)
from repro.core import (
    PivotError,
    back_substitute,
    determinant,
    floyd_warshall,
    forward_eliminate,
    gaussian_solve,
    lu_decompose,
    reconstruct_path,
    run_gep,
    semiring_closure,
    transitive_closure,
)
from repro.core.fwapsp import _prepare_weights
from repro.core.gep import FloydWarshallGep
from repro.sparkle import SparkleContext
from repro.workloads import (
    diagonally_dominant,
    grid_road_network,
    layered_dag_weights,
    random_digraph_weights,
    spd_matrix,
    weights_to_boolean,
)


class TestFloydWarshall:
    def test_matches_scipy_and_numpy(self):
        w = random_digraph_weights(40, 0.25, seed=1)
        d = floyd_warshall(w)
        np.testing.assert_allclose(d, scipy_shortest_paths(w))
        np.testing.assert_allclose(d, numpy_floyd_warshall(w))

    def test_matches_networkx_dijkstra(self):
        w = grid_road_network(5, 5, seed=2)
        np.testing.assert_allclose(floyd_warshall(w), networkx_apsp(w))

    def test_unreachable_stays_inf(self):
        w = np.full((3, 3), np.inf)
        np.fill_diagonal(w, 0)
        w[0, 1] = 1.0
        d = floyd_warshall(w)
        assert d[0, 1] == 1.0 and np.isinf(d[1, 0]) and np.isinf(d[0, 2])

    def test_engines_agree(self):
        w = random_digraph_weights(20, 0.3, seed=3)
        ref = floyd_warshall(w, engine="reference")
        local = floyd_warshall(w, engine="local", r=3, kernel="recursive",
                               r_shared=2, base_size=4)
        with SparkleContext(2, 2) as sc:
            spark = floyd_warshall(w, engine="spark", sc=sc, r=3, strategy="cb")
        np.testing.assert_allclose(local, ref)
        np.testing.assert_allclose(spark, ref)

    def test_input_not_mutated(self):
        w = random_digraph_weights(10, 0.4, seed=4)
        before = w.copy()
        floyd_warshall(w)
        np.testing.assert_array_equal(w, before)

    def test_negative_cycle_detection(self):
        # a negative cycle shows as a negative diagonal entry after FW
        w = np.array([[0.0, 1.0, np.inf], [np.inf, 0.0, -3.0], [1.0, np.inf, 0.0]])
        assert (np.diag(floyd_warshall(w)) < 0).any()
        d = floyd_warshall(random_digraph_weights(10, 0.4, seed=5))
        assert not (np.diag(d) < 0).any()

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            floyd_warshall(np.zeros((2, 3)))

    def test_rejects_unknown_option(self):
        with pytest.raises(TypeError):
            floyd_warshall(np.zeros((2, 2)), warp_drive=True)

    def test_return_report(self):
        w = random_digraph_weights(8, 0.4, seed=6)
        d, report = floyd_warshall(w, engine="local", r=2, return_report=True)
        assert report.strategy == "local" and report.r == 2


class TestPathReconstruction:
    def test_path_is_shortest(self):
        w = grid_road_network(4, 4, seed=7)
        d = floyd_warshall(w)
        path = reconstruct_path(d, w, 0, 15)
        assert path[0] == 0 and path[-1] == 15
        total = sum(w[a, b] for a, b in zip(path, path[1:]))
        assert total == pytest.approx(d[0, 15])

    def test_trivial_path(self):
        w = random_digraph_weights(5, 0.5, seed=8)
        d = floyd_warshall(w)
        assert reconstruct_path(d, w, 2, 2) == [2]

    def test_unreachable_raises(self):
        w = np.full((2, 2), np.inf)
        np.fill_diagonal(w, 0)
        d = floyd_warshall(w)
        with pytest.raises(ValueError):
            reconstruct_path(d, w, 0, 1)

    def test_bad_vertex(self):
        w = np.zeros((2, 2))
        with pytest.raises(IndexError):
            reconstruct_path(w, w, 0, 5)


class TestGaussian:
    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    def test_solve_matches_lapack(self, n):
        a = diagonally_dominant(n, seed=n)
        b = np.arange(n, dtype=float) + 1
        x = gaussian_solve(a, b)
        np.testing.assert_allclose(x, numpy_gaussian_solve(a, b), rtol=1e-8)

    def test_solve_spd(self):
        a = spd_matrix(12, condition=50, seed=1)
        b = np.ones(12)
        np.testing.assert_allclose(
            gaussian_solve(a, b), numpy_gaussian_solve(a, b), rtol=1e-6
        )

    def test_multi_rhs(self):
        a = diagonally_dominant(9, seed=2)
        b = np.random.default_rng(0).uniform(-1, 1, (9, 3))
        x = gaussian_solve(a, b)
        assert x.shape == (9, 3)
        np.testing.assert_allclose(a @ x, b, rtol=1e-8, atol=1e-10)

    def test_lu_decomposition(self):
        a = diagonally_dominant(11, seed=3)
        l, u = lu_decompose(a)
        np.testing.assert_allclose(l @ u, a, rtol=1e-9)
        np.testing.assert_allclose(np.diag(l), 1.0)
        assert np.allclose(l, np.tril(l)) and np.allclose(u, np.triu(u))

    def test_determinant(self):
        a = diagonally_dominant(8, seed=4)
        assert determinant(a) == pytest.approx(np.linalg.det(a), rel=1e-8)

    def test_forward_eliminate_shapes(self):
        a = diagonally_dominant(6, seed=5)
        u, y = forward_eliminate(a, np.ones(6))
        assert u.shape == (6, 6) and y.shape == (6,)
        u2, y2 = forward_eliminate(a, None)
        assert y2 is None

    def test_back_substitute_rejects_singular(self):
        with pytest.raises(PivotError):
            back_substitute(np.array([[1.0, 2.0], [0.0, 0.0]]), np.ones(2))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_pivot_error_on_zero_pivot_matrix(self):
        # Needs pivoting: leading entry zero.
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(PivotError):
            lu_decompose(a)

    def test_rhs_shape_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_solve(np.eye(3), np.ones(4))

    def test_spark_engine_solves(self):
        a = diagonally_dominant(16, seed=6)
        b = np.ones(16)
        with SparkleContext(2, 2) as sc:
            x = gaussian_solve(a, b, engine="spark", sc=sc, r=3,
                               kernel="recursive", r_shared=2, base_size=4)
        np.testing.assert_allclose(x, numpy_gaussian_solve(a, b), rtol=1e-8)


class TestTransitiveClosure:
    def test_matches_boolean_squaring(self):
        adj = weights_to_boolean(random_digraph_weights(25, 0.12, seed=1))
        np.testing.assert_array_equal(
            transitive_closure(adj), boolean_closure_by_squaring(adj)
        )

    def test_layered_dag_reachability(self):
        w = layered_dag_weights(4, 3, density=1.0, seed=0)
        adj = np.isfinite(w) & ~np.eye(12, dtype=bool)
        closure = transitive_closure(adj)
        assert closure[0, 11]  # first layer reaches last
        assert not closure[11, 0]

    def test_non_reflexive(self):
        adj = np.zeros((3, 3), dtype=bool)
        closure = transitive_closure(adj, reflexive=False)
        assert not closure.any()

    def test_spark_engine(self):
        adj = weights_to_boolean(random_digraph_weights(18, 0.15, seed=2))
        ref = transitive_closure(adj)
        with SparkleContext(2, 2) as sc:
            got = transitive_closure(adj, engine="spark", sc=sc, r=3, strategy="im")
        np.testing.assert_array_equal(got, ref)


class TestSemiringClosure:
    def test_maxplus_longest_path_on_dag(self):
        w = layered_dag_weights(3, 2, density=1.0, seed=1)
        table = np.where(np.isfinite(w), w, -np.inf)
        np.fill_diagonal(table, 0.0)
        longest = semiring_closure(table, "maxplus")
        # longest path 0 -> last layer must be >= any single edge chain
        assert longest[0, 4] >= table[0, 2] + table[2, 4]

    def test_tropical_equals_fw(self):
        w = random_digraph_weights(15, 0.3, seed=3)
        np.testing.assert_allclose(semiring_closure(w, "tropical"), floyd_warshall(w))


class TestRunGepPlumbing:
    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            run_gep(FloydWarshallGep(), np.zeros((4, 4)), engine="gpu")

    def test_spark_engine_owns_context_when_missing(self):
        w = random_digraph_weights(8, 0.5, seed=9)
        out, report = run_gep(FloydWarshallGep(), _prepare_weights(w), engine="spark", r=2)
        np.testing.assert_allclose(out, floyd_warshall(w))

    def test_local_report_stats(self):
        w = random_digraph_weights(8, 0.5, seed=10)
        out, report = run_gep(
            FloydWarshallGep(), _prepare_weights(w), engine="local", r=2,
            collect_stats=True,
        )
        assert report.kernel_stats.updates == 8**3
