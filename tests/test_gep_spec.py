"""GEP specifications: Σ_G, masks, references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gep import (
    FloydWarshallGep,
    GaussianEliminationGep,
    SemiringGep,
    TransitiveClosureGep,
    gep_reference,
    gep_reference_vectorized,
)
from repro.semiring import CountingSemiring

from .conftest import assert_tables_equal, fw_table, ge_table, tc_table


class TestSigma:
    def test_fw_sigma_is_full_cube(self, fw_spec):
        assert all(
            fw_spec.sigma(i, j, k) for i in range(3) for j in range(3) for k in range(3)
        )

    def test_ge_sigma_requires_strictly_greater(self, ge_spec):
        assert ge_spec.sigma(2, 2, 1)
        assert not ge_spec.sigma(1, 2, 1)
        assert not ge_spec.sigma(2, 1, 1)
        assert not ge_spec.sigma(1, 1, 1)

    def test_ge_mask_matches_sigma(self, ge_spec):
        n = 7
        for k in (0, 3, 6):
            mask = ge_spec.sigma_mask(0, 0, (n, n), k)
            expect = np.array(
                [[ge_spec.sigma(i, j, k) for j in range(n)] for i in range(n)]
            )
            np.testing.assert_array_equal(mask, expect)

    def test_fw_mask_is_none(self, fw_spec):
        assert fw_spec.sigma_mask(0, 0, (5, 5), 2) is None

    def test_ge_mask_fast_path_below_pivot(self, ge_spec):
        # Tile entirely right/below the pivot: no masking needed.
        assert ge_spec.sigma_mask(5, 5, (3, 3), 4) is None

    def test_ge_mask_zero_for_dead_tile(self, ge_spec):
        mask = ge_spec.sigma_mask(0, 5, (3, 3), 4)
        assert mask is not None and not mask.any()

    def test_offset_mask_consistency(self, ge_spec):
        n, gi0, gj0, k = 4, 3, 6, 4
        mask = ge_spec.sigma_mask(gi0, gj0, (n, n), k)
        expect = np.array(
            [
                [ge_spec.sigma(gi0 + a, gj0 + b, k) for b in range(n)]
                for a in range(n)
            ]
        )
        np.testing.assert_array_equal(mask, expect)


class TestPivotRange:
    def test_ge_k_active_respects_n_pivots(self):
        spec = GaussianEliminationGep(n_pivots=3)
        assert spec.k_active(2, 10)
        assert not spec.k_active(3, 10)
        assert not spec.k_active(-1, 10)

    def test_default_runs_all_k(self, fw_spec):
        assert fw_spec.k_active(0, 4) and fw_spec.k_active(3, 4)
        assert not fw_spec.k_active(4, 4)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 96])
    def test_active_steps_are_a_prefix(self, n):
        """``k_active`` holds on ``[0, hi)`` and nowhere else — what lets
        a tile kernel decide a pivot range from its two ends."""
        specs = [FloydWarshallGep(), TransitiveClosureGep(), GaussianEliminationGep()]
        specs += [GaussianEliminationGep(n_pivots=p) for p in (0, 1, n // 2, n, n + 3)]
        for spec in specs:
            active = [spec.k_active(gk, n) for gk in range(-2, n + 3)]
            hi = sum(active)
            assert active == [False] * 2 + [True] * hi + [False] * (n + 3 - hi), spec

    def test_negative_pivots_rejected(self):
        with pytest.raises(ValueError):
            GaussianEliminationGep(n_pivots=-1)


class TestReferences:
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_fw_vectorized_equals_scalar(self, fw_spec, n):
        t = fw_table(n, seed=n)
        assert_tables_equal(
            gep_reference(fw_spec, t), gep_reference_vectorized(fw_spec, t)
        )

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_ge_vectorized_equals_scalar(self, ge_spec, n):
        t = ge_table(n, seed=n)
        assert_tables_equal(
            gep_reference(ge_spec, t), gep_reference_vectorized(ge_spec, t)
        )

    def test_tc_vectorized_equals_scalar(self, tc_spec):
        t = tc_table(8, seed=2)
        assert_tables_equal(
            gep_reference(tc_spec, t), gep_reference_vectorized(tc_spec, t)
        )

    def test_fw_matches_scipy(self, fw_spec):
        import scipy.sparse as sps
        import scipy.sparse.csgraph as csg

        w = fw_table(16, seed=5)
        ours = gep_reference_vectorized(fw_spec, w)
        m = np.where(np.isfinite(w) & (w != 0), w, 0)
        ref = csg.shortest_path(sps.csr_matrix(m), method="FW", directed=True)
        np.testing.assert_allclose(ours, ref)

    def test_tc_matches_networkx(self, tc_spec):
        import networkx as nx

        from repro.workloads import random_digraph_weights, weights_to_networkx

        w = random_digraph_weights(12, 0.15, seed=7)
        t = np.isfinite(w)
        np.fill_diagonal(t, True)
        ours = gep_reference_vectorized(tc_spec, t)
        g = weights_to_networkx(w)
        closure = nx.transitive_closure(g, reflexive=True)
        ref = np.zeros((12, 12), dtype=bool)
        for u, v in closure.edges():
            ref[u, v] = True
        np.fill_diagonal(ref, True)
        np.testing.assert_array_equal(ours, ref)

    def test_counting_semiring_gep_counts_paths(self):
        # Over the counting semiring, the GEP fold counts, per (i, j),
        # simple-path enumerations through prefix intermediate sets on a
        # DAG; for a strictly upper-triangular adjacency this equals the
        # number of distinct paths i -> j, checkable by DP.
        n = 7
        rng = np.random.default_rng(11)
        adj = np.triu((rng.random((n, n)) < 0.5).astype(np.int64), 1)
        spec = SemiringGep(CountingSemiring(), name="path-count")
        got = gep_reference_vectorized(spec, adj.copy())
        # Independent reference: path counts by topological DP.
        ref = adj.astype(np.int64).copy()
        for j in range(n):
            for i in range(n - 1, -1, -1):
                ref[i, j] += sum(adj[i, m] * ref[m, j] for m in range(i + 1, j))
        np.testing.assert_array_equal(np.triu(got, 1), np.triu(ref, 1))

    def test_reference_rejects_non_square(self, fw_spec):
        with pytest.raises(ValueError):
            gep_reference(fw_spec, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            gep_reference_vectorized(fw_spec, np.zeros((2, 3)))

    def test_ge_solves_linear_system(self):
        from repro.workloads import augmented_system

        n = 10
        _, x_true, aug = augmented_system(n, seed=4)
        size = n + 1
        spec = GaussianEliminationGep(n_pivots=n - 1)
        sq = np.zeros((size, size))
        sq[:n, :] = aug
        sq[n, n] = 1.0
        done = gep_reference_vectorized(spec, sq)
        x = np.linalg.solve(np.triu(done[:n, :n]), done[:n, n])
        np.testing.assert_allclose(x, x_true, rtol=1e-8)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=100))
@settings(max_examples=40, deadline=None)
def test_fw_reference_idempotent(n, seed):
    """Running FW twice changes nothing (fixpoint property)."""
    spec = FloydWarshallGep()
    t = fw_table(n, seed=seed)
    once = gep_reference_vectorized(spec, t)
    twice = gep_reference_vectorized(spec, once)
    np.testing.assert_allclose(twice, once)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=100))
@settings(max_examples=40, deadline=None)
def test_tc_reference_idempotent(n, seed):
    spec = TransitiveClosureGep()
    t = tc_table(n, seed=seed)
    once = gep_reference_vectorized(spec, t)
    twice = gep_reference_vectorized(spec, once)
    np.testing.assert_array_equal(twice, once)
