"""Grid-level blocked execution vs the unblocked reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocked import (
    b_range,
    blocked_gep_inplace,
    c_range,
    grid_bounds,
    updated_tiles,
)
from repro.core.gep import (
    FloydWarshallGep,
    GaussianEliminationGep,
    TransitiveClosureGep,
    gep_reference_vectorized,
)
from repro.kernels import IterativeKernel, KernelStats, OmpRuntime, RecursiveKernel

from .conftest import assert_tables_equal, fw_table, ge_table, tc_table

SPECS = {
    "fw": (FloydWarshallGep(), fw_table),
    "ge": (GaussianEliminationGep(), ge_table),
    "tc": (TransitiveClosureGep(), tc_table),
}


class TestRanges:
    def test_fw_ranges_exclude_pivot(self):
        spec = FloydWarshallGep()
        assert b_range(spec, 1, 4) == [0, 2, 3]
        assert c_range(spec, 0, 3) == [1, 2]

    def test_ge_ranges_strictly_after_pivot(self):
        spec = GaussianEliminationGep()
        assert b_range(spec, 1, 4) == [2, 3]
        assert c_range(spec, 3, 4) == []

    def test_updated_tiles_fw(self):
        spec = FloydWarshallGep()
        tiles = updated_tiles(spec, 0, 2)
        assert tiles["A"] == [(0, 0)]
        assert tiles["B"] == [(0, 1)]
        assert tiles["C"] == [(1, 0)]
        assert tiles["D"] == [(1, 1)]

    def test_updated_tiles_ge_last_iteration(self):
        spec = GaussianEliminationGep()
        tiles = updated_tiles(spec, 2, 3)
        assert tiles["A"] == [(2, 2)]
        assert tiles["B"] == [] and tiles["C"] == [] and tiles["D"] == []

    def test_grid_bounds_uneven(self):
        assert grid_bounds(10, 4) == [0, 2, 5, 7, 10]
        assert grid_bounds(3, 8) == [0, 1, 2, 3]


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("r", [1, 2, 3, 4, 7])
def test_blocked_iterative_matches_reference(name, r):
    spec, make = SPECS[name]
    n = 14
    t = make(n, seed=r)
    expect = gep_reference_vectorized(spec, t)
    got = t.copy()
    blocked_gep_inplace(spec, got, r, IterativeKernel(spec))
    assert_tables_equal(got, expect)


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("r,r_shared,base", [(2, 2, 2), (4, 2, 2), (3, 4, 1), (5, 2, 8)])
def test_blocked_recursive_matches_reference(name, r, r_shared, base):
    spec, make = SPECS[name]
    n = 15
    t = make(n, seed=r * 3 + r_shared)
    expect = gep_reference_vectorized(spec, t)
    got = t.copy()
    blocked_gep_inplace(spec, got, r, RecursiveKernel(spec, r_shared, base))
    assert_tables_equal(got, expect)


@pytest.mark.parametrize("name", SPECS)
def test_blocked_with_parallel_runtime(name):
    """The runtime lives in the recursive kernel: its parallel-for stages
    run on four threads under the blocked schedule."""
    spec, make = SPECS[name]
    n = 16
    t = make(n, seed=8)
    expect = gep_reference_vectorized(spec, t)
    got = t.copy()
    blocked_gep_inplace(spec, got, 4, RecursiveKernel(spec, 2, 2, OmpRuntime(4)))
    assert_tables_equal(got, expect)


def test_blocked_validations(fw_spec):
    with pytest.raises(ValueError):
        blocked_gep_inplace(fw_spec, np.zeros((2, 3)), 2, IterativeKernel(fw_spec))
    with pytest.raises(ValueError):
        blocked_gep_inplace(fw_spec, np.zeros((4, 4)), 0, IterativeKernel(fw_spec))


def test_blocked_stats_total_work(fw_spec):
    n, r = 12, 3
    t = fw_table(n, seed=3)
    stats = KernelStats()
    blocked_gep_inplace(fw_spec, t, r, IterativeKernel(fw_spec), stats=stats)
    assert stats.updates == n**3
    # Per iteration: 1 A + (r-1) B + (r-1) C + (r-1)^2 D invocations.
    per_iter = 1 + 2 * (r - 1) + (r - 1) ** 2
    assert stats.total_invocations == r * per_iter


@given(
    n=st.integers(min_value=1, max_value=18),
    r=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=30, deadline=None)
def test_property_blocked_tc_matches_reference(n, r, seed):
    spec = TransitiveClosureGep()
    t = tc_table(n, seed=seed)
    expect = gep_reference_vectorized(spec, t)
    got = t.copy()
    blocked_gep_inplace(spec, got, r, IterativeKernel(spec))
    np.testing.assert_array_equal(got, expect)


@given(
    n=st.integers(min_value=2, max_value=14),
    r=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=30),
)
@settings(max_examples=30, deadline=None)
def test_property_blocked_ge_matches_reference(n, r, seed):
    spec = GaussianEliminationGep()
    t = ge_table(n, seed=seed)
    expect = gep_reference_vectorized(spec, t)
    got = t.copy()
    blocked_gep_inplace(spec, got, r, IterativeKernel(spec))
    np.testing.assert_allclose(got, expect, rtol=1e-9, atol=1e-9)
