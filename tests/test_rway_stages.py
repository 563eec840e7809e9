"""Fig. 4 as data: ``rway_stages`` is a legal parallel schedule, it is
what ``expand_call`` flattens, and the recursive kernel driven by it
does exactly the work it did when the r-way body was typed out by hand."""

from collections import Counter
from itertools import combinations

import pytest

from repro.core.blocked import fig4_stages, rway_stages
from repro.core.calls import Call, Region, expand_call
from repro.core.gep import FloydWarshallGep, GaussianEliminationGep
from repro.kernels import KernelStats, RecursiveKernel

from .conftest import fw_table, ge_table

SPECS = {"fw": (FloydWarshallGep(), fw_table), "ge": (GaussianEliminationGep(), ge_table)}


def _parent_call(case: str, s: int) -> Call:
    """A ``case`` call on size-``s`` regions laid out as in a 2x2 grid
    whose pivot tile is (0, 0)."""
    w, row, col, rest = Region(0, 0, s), Region(0, s, s), Region(s, 0, s), Region(s, s, s)
    return {
        "A": Call("A", w, w, w, w),
        "B": Call("B", row, w, row, w),
        "C": Call("C", col, col, w, w),
        "D": Call("D", rest, col, row, w),
    }[case]


@pytest.mark.parametrize("r", [2, 3, 4])
@pytest.mark.parametrize("case", "ABCD")
@pytest.mark.parametrize("name", SPECS)
def test_stage_mates_are_independent_and_stages_flatten_to_expand_call(name, case, r):
    spec = SPECS[name][0]
    parent = _parent_call(case, 12)
    step = 12 // r
    flat = iter(expand_call(spec, parent, r))
    for k in range(r):
        for stage in fig4_stages(spec, case, k, r, r):
            calls = [next(flat) for _ in stage]
            assert [(c.case, c.x) for c in calls] == [
                (sub, Region(parent.x.i0 + i * step, parent.x.j0 + j * step, step))
                for sub, i, j in stage
            ]
            for a, b in combinations(calls, 2):
                assert not a.writes.overlaps(b.writes)
                assert not any(a.writes.overlaps(region) for region in b.reads)
                assert not any(b.writes.overlaps(region) for region in a.reads)
    assert next(flat, None) is None


class _WidthStats(KernelStats):
    """KernelStats that also keeps every parallel-for width."""

    def record_parallel_for(self, width: int) -> None:
        super().record_parallel_for(width)
        self.widths[width] += 1


# (invocations per case, recursion calls, parallel-fors, {width: count}),
# 48x48 table, base_size 8 — taken at the commit before rway_stages.
PINNED = {
    ("fw", 2): ({"A": 8, "B": 56, "C": 56, "D": 392}, 73, 216, {1: 14, 2: 126, 4: 76}),
    ("fw", 3): ({"A": 9, "B": 72, "C": 72, "D": 576}, 28, 132, {3: 36, 4: 24, 6: 36, 9: 36}),
    ("fw", 4): (
        {"A": 16, "B": 240, "C": 240, "D": 3600},
        65,
        376,
        {4: 96, 6: 20, 9: 20, 12: 96, 16: 144},
    ),
    ("ge", 2): ({"A": 8, "B": 28, "C": 28, "D": 140}, 36, 86, {1: 7, 2: 49, 4: 30}),
    ("ge", 3): (
        {"A": 9, "B": 36, "C": 36, "D": 204},
        15,
        61,
        {1: 4, 2: 4, 3: 24, 4: 8, 6: 6, 9: 15},
    ),
    ("ge", 4): (
        {"A": 16, "B": 120, "C": 120, "D": 1240},
        31,
        170,
        {1: 5, 2: 5, 4: 70, 6: 5, 8: 12, 9: 5, 12: 12, 16: 56},
    ),
}


@pytest.mark.parametrize("key", PINNED, ids=lambda key: f"{key[0]}-r{key[1]}")
def test_recursive_kernel_stats_are_pinned(key):
    name, r = key
    spec, make = SPECS[name]
    table = make(48, seed=3)
    stats = _WidthStats()
    stats.widths = Counter()
    RecursiveKernel(spec, r_shared=r, base_size=8).run(
        "A", table, table, table, table, 0, 0, 0, 48, stats=stats
    )
    invocations, recursions, parallel_fors, widths = PINNED[key]
    assert dict(stats.invocations) == invocations
    assert stats.recursion_calls == recursions
    assert stats.parallel_stages == parallel_fors
    assert dict(stats.widths) == widths
    assert stats.max_parallel_width == max(widths)


def test_a_second_identical_run_derives_no_stage():
    spec, make = SPECS["ge"]
    kernel = RecursiveKernel(spec, r_shared=3, base_size=8)
    first, second = make(48, seed=3), make(48, seed=3)
    kernel.run("A", first, first, first, first, 0, 0, 0, 48)
    misses = rway_stages.cache_info().misses
    assert misses > 0
    kernel.run("A", second, second, second, second, 0, 0, 0, 48)
    assert rway_stages.cache_info().misses == misses
