"""Second extension batch: distributed parenthesis wavefront, arbitrary
tile boundaries (the GEP theorem), adaptive tuning, CLI."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocked import blocked_gep_inplace
from repro.core.gep import (
    FloydWarshallGep,
    GaussianEliminationGep,
    gep_reference_vectorized,
)
from repro.core.parenthesis import matrix_chain_order, parenthesis_solve
from repro.core.parenthesis_spark import parenthesis_solve_spark
from repro.core.tuning import adaptive_tune
from repro.cluster import ExecutionPlan
from repro.kernels import IterativeKernel
from repro.sparkle import SparkleContext
from repro.workloads import random_digraph_weights

from .conftest import assert_tables_equal, fw_table, ge_table


class TestDistributedParenthesis:
    @pytest.mark.parametrize("r", [1, 2, 4, 7])
    def test_matches_single_node(self, r):
        rng = np.random.default_rng(r)
        dims = rng.integers(1, 10, size=14).astype(float)

        def cost(i, ks, j):
            return dims[i] * dims[ks] * dims[j]

        n = dims.size
        c_ref, _ = parenthesis_solve(n, cost)
        with SparkleContext(3, 2) as sc:
            c, split = parenthesis_solve_spark(n, cost, sc, r=r)
        iu = np.triu_indices(n, 1)
        np.testing.assert_allclose(c[iu], c_ref[iu])

    def test_split_points_reconstruct_optimal_cost(self):
        dims = [30, 35, 15, 5, 10, 20, 25]

        def cost(i, ks, j):
            d = np.asarray(dims, dtype=float)
            return d[i] * d[np.asarray(ks)] * d[j]

        with SparkleContext(2, 2) as sc:
            c, split = parenthesis_solve_spark(len(dims), cost, sc, r=3)
        assert c[0, len(dims) - 1] == 15125  # CLRS instance
        k = split[0, len(dims) - 1]
        assert c[0, k] + c[k, len(dims) - 1] + dims[0] * dims[k] * dims[-1] == 15125

    def test_wavefront_stage_structure(self):
        def cost(i, ks, j):
            return 1.0

        with SparkleContext(2, 2) as sc:
            parenthesis_solve_spark(9, cost, sc, r=4)
            # One job per tile diagonal.
            assert len(sc.metrics.jobs) == 4

    def test_validation(self):
        with SparkleContext(1, 1) as sc:
            with pytest.raises(ValueError):
                parenthesis_solve_spark(1, lambda i, ks, j: 0.0, sc)
            with pytest.raises(ValueError):
                parenthesis_solve_spark(4, lambda i, ks, j: 0.0, sc, r=0)


class TestArbitraryTileBoundaries:
    """The GEP correctness theorem holds for any contiguous partition."""

    def test_handpicked_uneven_bounds(self):
        spec = GaussianEliminationGep()
        t = ge_table(11, seed=1)
        expect = gep_reference_vectorized(spec, t)
        got = t.copy()
        blocked_gep_inplace(
            spec, got, 1, IterativeKernel(spec), bounds=[0, 1, 2, 7, 11]
        )
        assert_tables_equal(got, expect)

    def test_bounds_validation(self):
        spec = FloydWarshallGep()
        t = fw_table(6, seed=0)
        for bad in ([1, 6], [0, 5], [0, 3, 3, 6], [0, 4, 2, 6]):
            with pytest.raises(ValueError):
                blocked_gep_inplace(
                    spec, t.copy(), 1, IterativeKernel(spec), bounds=bad
                )

    @given(
        n=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=40),
        cuts=st.sets(st.integers(min_value=1, max_value=15), max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_any_partition_is_correct(self, n, seed, cuts):
        spec = FloydWarshallGep()
        t = fw_table(n, seed=seed)
        expect = gep_reference_vectorized(spec, t)
        bounds = [0] + sorted(c for c in cuts if c < n) + [n]
        got = t.copy()
        blocked_gep_inplace(spec, got, 1, IterativeKernel(spec), bounds=bounds)
        np.testing.assert_allclose(got, expect)


class TestAdaptiveTune:
    def test_picks_a_valid_config(self):
        w = random_digraph_weights(32, 0.3, seed=2)
        r, plan, secs = adaptive_tune(
            FloydWarshallGep(), w, num_executors=2, cores_per_executor=2
        )
        assert r >= 1 and secs > 0
        assert plan.strategy in ("im", "cb")

    def test_explicit_candidates_and_ordering(self):
        w = random_digraph_weights(24, 0.3, seed=3)
        cands = [
            (2, ExecutionPlan("im", "iterative")),
            (3, ExecutionPlan("cb", "iterative")),
        ]
        r, plan, secs = adaptive_tune(
            FloydWarshallGep(), w, candidates=cands,
            num_executors=2, cores_per_executor=1,
        )
        assert (r, plan.strategy) in {(2, "im"), (3, "cb")}


class TestCli:
    def test_info(self, capsys):
        from repro.__main__ import main

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "skylake16" in out

    def test_solve_apsp_local(self, capsys):
        from repro.__main__ import main

        assert main(["solve", "apsp", "--n", "32", "--engine", "local"]) == 0
        assert "APSP solved" in capsys.readouterr().out

    def test_solve_ge_spark(self, capsys):
        from repro.__main__ import main

        assert main([
            "solve", "ge", "--n", "24", "--engine", "spark",
            "--strategy", "cb", "--executors", "2", "--cores", "1",
        ]) == 0
        assert "GE eliminated" in capsys.readouterr().out

    def test_solve_roundtrip_file(self, tmp_path, capsys):
        from repro.__main__ import main

        src = tmp_path / "w.npy"
        dst = tmp_path / "d.npy"
        w = random_digraph_weights(16, 0.4, seed=5)
        np.save(src, w)
        assert main([
            "solve", "apsp", "--input", str(src), "--output", str(dst),
            "--engine", "reference",
        ]) == 0
        from repro.core import floyd_warshall

        np.testing.assert_allclose(np.load(dst), floyd_warshall(w))

    def test_solve_chaos_flag(self, capsys):
        from repro.__main__ import main

        assert main([
            "solve", "apsp", "--n", "16", "--engine", "spark",
            "--executors", "2", "--cores", "1",
            "--chaos", "seed=7,kill=0.2,storage=0.1",
        ]) == 0
        out = capsys.readouterr().out
        assert "APSP solved" in out
        assert "chaos: FaultPlan(seed=7" in out
        assert "recovery:" in out

    def test_chaos_requires_spark_engine(self, capsys):
        from repro.__main__ import main

        assert main([
            "solve", "apsp", "--n", "16", "--engine", "local",
            "--chaos", "seed=1",
        ]) == 2
        assert "requires --engine spark" in capsys.readouterr().err

    def test_chaos_rejects_bad_spec(self, capsys):
        from repro.__main__ import main

        assert main([
            "solve", "apsp", "--n", "16", "--engine", "spark",
            "--chaos", "kill=0.5",
        ]) == 2
        assert "invalid --chaos spec" in capsys.readouterr().err

    def test_tune_command(self, capsys):
        from repro.__main__ import main

        assert main(["tune", "ge", "--n", "8192", "--cluster", "laptop"]) == 0
        out = capsys.readouterr().out
        assert "gaussian-elimination" in out and "alternatives" in out

    def test_experiments_passthrough(self, capsys):
        from repro.__main__ import main

        assert main(["experiments", "fig7"]) == 0
        assert "Kernel dependency edges" in capsys.readouterr().out
