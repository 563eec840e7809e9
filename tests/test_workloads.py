"""Workload generators: determinism, structure, validity."""

import numpy as np
import pytest

from repro.workloads import (
    augmented_system,
    diagonally_dominant,
    grid_road_network,
    layered_dag_weights,
    random_digraph_weights,
    random_rhs,
    scale_free_weights,
    spd_matrix,
    weights_to_boolean,
    weights_to_networkx,
)


class TestDigraphs:
    def test_shape_and_diagonal(self):
        w = random_digraph_weights(10, 0.5, seed=1)
        assert w.shape == (10, 10)
        np.testing.assert_allclose(np.diag(w), 0.0)

    def test_deterministic(self):
        a = random_digraph_weights(12, 0.3, seed=42)
        b = random_digraph_weights(12, 0.3, seed=42)
        np.testing.assert_array_equal(a, b)
        c = random_digraph_weights(12, 0.3, seed=43)
        assert not np.array_equal(a, c)

    def test_density_extremes(self):
        empty = random_digraph_weights(8, 0.0, seed=0)
        assert np.isinf(empty).sum() == 8 * 8 - 8
        full = random_digraph_weights(8, 1.0, seed=0)
        assert np.isfinite(full).all()

    def test_weight_range(self):
        w = random_digraph_weights(20, 1.0, weight_range=(2.0, 3.0), seed=5)
        finite = w[np.isfinite(w) & (w > 0)]
        assert finite.min() >= 2.0 and finite.max() < 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            random_digraph_weights(0)
        with pytest.raises(ValueError):
            random_digraph_weights(4, density=1.5)


class TestGridRoadNetwork:
    def test_lattice_edges_exist(self):
        w = grid_road_network(3, 4, diagonal_shortcuts=0.0, seed=0)
        assert w.shape == (12, 12)
        assert np.isfinite(w[0, 1]) and np.isfinite(w[1, 0])  # east-west pair
        assert np.isfinite(w[0, 4]) and np.isfinite(w[4, 0])  # north-south pair
        assert np.isinf(w[0, 5])  # no diagonal without shortcuts

    def test_asymmetric_weights(self):
        w = grid_road_network(4, 4, diagonal_shortcuts=0.0, seed=3)
        ij = np.isfinite(w) & np.isfinite(w.T) & ~np.eye(16, dtype=bool)
        assert np.any(w[ij] != w.T[ij])

    def test_shortcuts_add_edges(self):
        base = grid_road_network(5, 5, diagonal_shortcuts=0.0, seed=7)
        cut = grid_road_network(5, 5, diagonal_shortcuts=0.5, seed=7)
        assert np.isfinite(cut).sum() >= np.isfinite(base).sum()


class TestScaleFree:
    def test_connectivity_bias(self):
        w = scale_free_weights(50, attach=2, seed=1)
        deg = np.isfinite(w).sum(axis=0) + np.isfinite(w).sum(axis=1)
        assert deg.max() > np.median(deg) * 2  # heavy tail

    def test_validation(self):
        with pytest.raises(ValueError):
            scale_free_weights(10, attach=0)


class TestLayeredDag:
    def test_edges_only_forward(self):
        w = layered_dag_weights(4, 3, seed=2)
        n = 12
        for i in range(n):
            for j in range(n):
                if i != j and np.isfinite(w[i, j]):
                    assert j // 3 == i // 3 + 1

    def test_reachability_is_layer_monotone(self):
        w = layered_dag_weights(3, 2, density=1.0, seed=0)
        adj = weights_to_boolean(w)
        assert adj[0, 2] or adj[0, 3]


class TestMatrices:
    def test_diagonally_dominant_property(self):
        a = diagonally_dominant(15, dominance=2.0, seed=1)
        off = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
        assert np.all(np.abs(np.diag(a)) > off)

    def test_diag_dominant_validation(self):
        with pytest.raises(ValueError):
            diagonally_dominant(0)
        with pytest.raises(ValueError):
            diagonally_dominant(4, dominance=0.5)

    def test_spd_is_spd(self):
        a = spd_matrix(10, condition=50.0, seed=2)
        np.testing.assert_allclose(a, a.T, atol=1e-12)
        eig = np.linalg.eigvalsh(a)
        assert eig.min() > 0

    def test_spd_condition_controlled(self):
        a = spd_matrix(20, condition=100.0, seed=3)
        eig = np.linalg.eigvalsh(a)
        assert eig.max() / eig.min() == pytest.approx(100.0, rel=0.05)

    def test_spd_validation(self):
        with pytest.raises(ValueError):
            spd_matrix(4, condition=0.5)

    def test_augmented_system_consistent(self):
        a, x, aug = augmented_system(9, seed=5)
        np.testing.assert_allclose(aug[:, :9], a)
        np.testing.assert_allclose(aug[:, 9], a @ x)

    def test_augmented_spd_kind(self):
        a, x, aug = augmented_system(6, kind="spd", seed=1)
        np.testing.assert_allclose(a, a.T, atol=1e-12)

    def test_augmented_unknown_kind(self):
        with pytest.raises(ValueError):
            augmented_system(4, kind="bogus")

    def test_random_rhs_shape(self):
        assert random_rhs(5, 3, seed=0).shape == (5, 3)


class TestConversions:
    def test_weights_to_boolean(self):
        w = random_digraph_weights(6, 0.3, seed=1)
        b = weights_to_boolean(w)
        assert b.dtype == bool and b.diagonal().all()

    def test_weights_to_networkx_roundtrip(self):
        w = random_digraph_weights(8, 0.4, seed=2)
        g = weights_to_networkx(w)
        assert g.number_of_nodes() == 8
        for u, v, data in g.edges(data=True):
            assert data["weight"] == pytest.approx(w[u, v])


class TestMakeProblem:
    def test_named_problems_are_the_generators_in_the_spec_dtype(self):
        from repro.workloads import PROBLEM_SPECS, make_problem

        weights = random_digraph_weights(9, 0.4, seed=5)
        expected = {
            "apsp": weights,
            "tc": np.isfinite(weights),
            "ge": diagonally_dominant(9, seed=5),
        }
        assert set(PROBLEM_SPECS) == set(expected)
        for problem, table in expected.items():
            spec, made = make_problem(problem, 9, 5, 0.4)
            assert isinstance(spec, PROBLEM_SPECS[problem])
            assert made.dtype == spec.dtype
            np.testing.assert_array_equal(made, table)
        with pytest.raises(ValueError, match="unknown problem"):
            make_problem("lcs", 9, 5, 0.4)
