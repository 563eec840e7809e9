"""Tile kernels: iterative vs scalar loop, recursive vs iterative,
aliasing cases, stats accounting, OpenMP runtime behaviour."""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocked import blocked_gep_inplace
from repro.core.gep import (
    FloydWarshallGep,
    GaussianEliminationGep,
    SemiringGep,
    TransitiveClosureGep,
    gep_reference_vectorized,
)
from repro.kernels import (
    IterativeKernel,
    KernelStats,
    OmpRuntime,
    RecursiveKernel,
    SerialRuntime,
    case_of,
    gep_tile_update,
    gep_tile_update_loop,
)
from repro.kernels.base import ALIAS_X, update_tile, update_tiles
from repro.semiring import MinPlus, Semiring, get_semiring, tropical
from repro.semiring import base as semiring_base

from .conftest import assert_tables_equal, fw_table, ge_table, tc_table

SPECS = {
    "fw": (FloydWarshallGep(), fw_table),
    "ge": (GaussianEliminationGep(), ge_table),
    "tc": (TransitiveClosureGep(), tc_table),
}


def _tiles(table, k, r_bounds):
    """Views of pivot-aligned tiles for manual kernel calls."""
    b = r_bounds

    def t(i, j):
        return table[b[i] : b[i + 1], b[j] : b[j + 1]]

    return t


@pytest.mark.parametrize("name", SPECS)
class TestIterativeTileKernel:
    def test_vectorized_equals_scalar_loop_case_a(self, name):
        spec, make = SPECS[name]
        t1 = make(8, seed=1).copy()
        t2 = t1.copy()
        gep_tile_update(spec, t1, t1, t1, t1, 0, 0, 0, 8)
        gep_tile_update_loop(spec, t2, t2, t2, t2, 0, 0, 0, 8)
        assert_tables_equal(t1, t2)

    def test_vectorized_equals_scalar_loop_all_cases(self, name):
        spec, make = SPECS[name]
        n, r = 12, 3
        bounds = [0, 4, 8, 12]
        full_a = make(n, seed=2).copy()
        full_b = full_a.copy()
        for table, fn in ((full_a, gep_tile_update), (full_b, gep_tile_update_loop)):
            t = _tiles(table, 0, bounds)
            k = 0
            fn(spec, t(k, k), t(k, k), t(k, k), t(k, k), 0, 0, 0, n)
            fn(spec, t(0, 1), t(0, 0), t(0, 1), t(0, 0), 0, 4, 0, n)  # B
            fn(spec, t(1, 0), t(1, 0), t(0, 0), t(0, 0), 4, 0, 0, n)  # C
            fn(spec, t(1, 1), t(1, 0), t(0, 1), t(0, 0), 4, 4, 0, n)  # D
        assert_tables_equal(full_a, full_b)

    def test_kernel_class_runs(self, name):
        spec, make = SPECS[name]
        t = make(6, seed=3).copy()
        stats = KernelStats()
        IterativeKernel(spec).run("A", t, t, t, t, 0, 0, 0, 6, stats=stats)
        assert stats.invocations["A"] == 1
        assert stats.updates > 0

    def test_pure_loop_kernel_matches(self, name):
        spec, make = SPECS[name]
        ref = make(10, seed=4)
        fast = ref.copy()
        slow = ref.copy()
        blocked_gep_inplace(spec, fast, 2, IterativeKernel(spec))
        blocked_gep_inplace(spec, slow, 2, IterativeKernel(spec, pure_loop=True))
        assert_tables_equal(fast, slow)


@pytest.mark.parametrize("name", SPECS)
class TestMaskHoistFastPath:
    """The vectorized kernel's hoisted fast path (no per-``kk`` mask /
    activity probes) must be indistinguishable from the general path —
    and from the scalar loop — wherever it fires."""

    def test_fast_and_masked_tiles_match_loop(self, name):
        spec, make = SPECS[name]
        n, r = 16, 4
        full = make(n, seed=13).copy()
        # Walk every tile of the second pivot step: GE tiles touching
        # the pivot row/column band take the masked path, tiles strictly
        # below/right of it take the hoisted path, FW/TC always hoist.
        gk0 = 4
        for gi0 in range(0, n, r):
            for gj0 in range(0, n, r):
                x1 = full[gi0 : gi0 + r, gj0 : gj0 + r].copy()
                x2 = x1.copy()
                u = full[gi0 : gi0 + r, gk0 : gk0 + r].copy()
                v = full[gk0 : gk0 + r, gj0 : gj0 + r].copy()
                w = full[gk0 : gk0 + r, gk0 : gk0 + r].copy()
                gep_tile_update(spec, x1, u, v, w, gi0, gj0, gk0, n)
                gep_tile_update_loop(spec, x2, u, v, w, gi0, gj0, gk0, n)
                assert_tables_equal(x1, x2)

    def test_fast_path_fires_where_expected(self, name, monkeypatch):
        """Below/right of the pivot band no per-step probe runs at all."""
        spec, make = SPECS[name]
        n, r, gk0 = 16, 4, 4
        calls = {"mask": 0}
        orig = type(spec).sigma_mask

        def counting_mask(self, gi0, gj0, shape, gk):
            calls["mask"] += 1
            return orig(self, gi0, gj0, shape, gk)

        monkeypatch.setattr(type(spec), "sigma_mask", counting_mask)
        full = make(n, seed=3).copy()
        x = full[8:12, 8:12].copy()
        u = full[8:12, gk0 : gk0 + r].copy()
        v = full[gk0 : gk0 + r, 8:12].copy()
        w = full[gk0 : gk0 + r, gk0 : gk0 + r].copy()
        gep_tile_update(spec, x, u, v, w, 8, 8, gk0, n)
        # one probe from sigma_mask_free's single gk_hi-1 check; the
        # hoisted loop itself never calls sigma_mask again
        assert calls["mask"] == 1

    def test_fast_path_stats_match_general_path(self, name):
        spec, make = SPECS[name]
        n, r = 12, 4
        full = make(n, seed=8).copy()
        x = full[8:12, 8:12].copy()
        u = full[8:12, 0:4].copy()
        v = full[0:4, 8:12].copy()
        w = full[0:4, 0:4].copy()
        fast = KernelStats()
        gep_tile_update(spec, x.copy(), u, v, w, 8, 8, 0, n, stats=fast, case="D")
        # Force the general path by lying about mask freedom.
        class NoHoist(type(spec)):
            def sigma_mask_free(self, gi0, gj0, shape, gk_lo, gk_hi):
                return False

        plain = KernelStats()
        gep_tile_update(
            _copy_spec(spec, NoHoist), x.copy(), u, v, w, 8, 8, 0, n,
            stats=plain, case="D",
        )
        assert fast.updates == plain.updates
        assert fast.invocations == plain.invocations


def _copy_spec(spec, cls):
    """A shallow clone of ``spec`` re-typed to ``cls`` (test helper)."""
    clone = object.__new__(cls)
    clone.__dict__.update(spec.__dict__)
    return clone


def test_fast_path_respects_partial_pivot_range():
    """GE with ``n_pivots`` short of the tile's range must not hoist —
    inactive trailing steps would be applied by the hoisted loop."""
    n = 12
    spec_full = GaussianEliminationGep()
    spec_part = GaussianEliminationGep(n_pivots=6)
    t = ge_table(n, seed=21)
    # pivot range [4, 8) straddles n_pivots=6: steps 6,7 are inactive
    x_p = t[8:12, 8:12].copy()
    x_ref = x_p.copy()
    u = t[8:12, 4:8].copy()
    v = t[4:8, 8:12].copy()
    w = t[4:8, 4:8].copy()
    gep_tile_update(spec_part, x_p, u, v, w, 8, 8, 4, n)
    gep_tile_update_loop(spec_part, x_ref, u, v, w, 8, 8, 4, n)
    assert_tables_equal(x_p, x_ref)
    # and the partial result genuinely differs from the full-pivot one
    x_full = t[8:12, 8:12].copy()
    gep_tile_update(spec_full, x_full, u, v, w, 8, 8, 4, n)
    assert not np.allclose(x_p, x_full)


def test_sigma_mask_free_antitone_contract():
    """``sigma_mask_free`` checks only ``gk_hi - 1`` — valid because
    base-Σ mask-freedom is antitone in ``gk``.  Spot-check the claim."""
    spec = GaussianEliminationGep()
    n, shape = 16, (4, 4)
    for gi0, gj0 in [(0, 0), (8, 8), (8, 0), (0, 8), (12, 12)]:
        for gk_lo in range(0, 8):
            for gk_hi in range(gk_lo, 8):
                free = spec.sigma_mask_free(gi0, gj0, shape, gk_lo, gk_hi)
                probed = all(
                    spec.sigma_mask(gi0, gj0, shape, gk) is None
                    for gk in range(gk_lo, gk_hi)
                )
                assert free == probed, (gi0, gj0, gk_lo, gk_hi)


class TestKernelShapeValidation:
    def test_bad_pivot_shape(self, fw_spec):
        x = np.zeros((4, 4))
        with pytest.raises(ValueError):
            gep_tile_update(fw_spec, x, x, x, np.zeros((4, 3)), 0, 0, 0, 4)

    def test_bad_u_shape(self, fw_spec):
        x = np.zeros((4, 4))
        w = np.zeros((2, 2))
        with pytest.raises(ValueError):
            gep_tile_update(fw_spec, x, np.zeros((3, 2)), np.zeros((2, 4)), w, 0, 0, 0, 4)

    def test_bad_v_shape(self, fw_spec):
        x = np.zeros((4, 4))
        w = np.zeros((2, 2))
        with pytest.raises(ValueError):
            gep_tile_update(fw_spec, x, np.zeros((4, 2)), np.zeros((3, 4)), w, 0, 0, 0, 4)

    def test_unknown_case_rejected(self, fw_spec):
        k = RecursiveKernel(fw_spec)
        x = np.zeros((2, 2))
        with pytest.raises(ValueError):
            k.run("E", x, x, x, x, 0, 0, 0, 2)

    def test_bad_kernel_params(self, fw_spec):
        with pytest.raises(ValueError):
            RecursiveKernel(fw_spec, r_shared=1)
        with pytest.raises(ValueError):
            RecursiveKernel(fw_spec, base_size=0)


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("r_shared,base", [(2, 1), (2, 4), (3, 2), (4, 4), (8, 2)])
def test_recursive_equals_reference(name, r_shared, base):
    spec, make = SPECS[name]
    n = 17  # deliberately not divisible by anything relevant
    t = make(n, seed=r_shared * 10 + base)
    expect = gep_reference_vectorized(spec, t)
    got = t.copy()
    kern = RecursiveKernel(spec, r_shared=r_shared, base_size=base)
    kern.run("A", got, got, got, got, 0, 0, 0, n)
    assert_tables_equal(got, expect)


@pytest.mark.parametrize("name", SPECS)
def test_recursive_parallel_equals_serial(name):
    spec, make = SPECS[name]
    n = 24
    t = make(n, seed=9)
    serial = t.copy()
    RecursiveKernel(spec, 4, 4, SerialRuntime()).run(
        "A", serial, serial, serial, serial, 0, 0, 0, n
    )
    with OmpRuntime(num_threads=4) as rt:
        par = t.copy()
        RecursiveKernel(spec, 4, 4, rt).run("A", par, par, par, par, 0, 0, 0, n)
    assert_tables_equal(par, serial)


def test_recursive_stats_accounting(fw_spec):
    n = 16
    t = fw_table(n, seed=1)
    stats = KernelStats()
    kern = RecursiveKernel(fw_spec, r_shared=2, base_size=4)
    kern.run("A", t, t, t, t, 0, 0, 0, n, stats=stats)
    # Every cell update is counted exactly once: n^3 for FW.
    assert stats.updates == n**3
    assert stats.recursion_calls > 0
    assert stats.parallel_stages > 0
    assert set(stats.invocations) <= {"A", "B", "C", "D"}


def test_iterative_stats_updates_count(ge_spec):
    n = 8
    t = ge_table(n, seed=2)
    stats = KernelStats()
    IterativeKernel(ge_spec).run("A", t, t, t, t, 0, 0, 0, n, stats=stats)
    # GE updates sum_k (n-1-k)^2
    expect = sum((n - 1 - k) ** 2 for k in range(n))
    assert stats.updates == expect


def test_stats_merge_and_log():
    a = KernelStats(keep_log=True)
    b = KernelStats(keep_log=True)
    a.record_base("A", 2, 2, 2, 8)
    b.record_base("D", 2, 2, 2, 8)
    b.record_parallel_for(5)
    a.merge(b)
    assert a.updates == 16
    assert a.total_invocations == 2
    assert a.max_parallel_width == 5
    assert len(a.log) == 2


def test_case_of_roundtrip():
    from repro.kernels import CASE_FLAGS

    for case, flags in CASE_FLAGS.items():
        assert case_of(*flags) == case


class TestOmpRuntime:
    def test_serial_executes_in_order(self):
        seen = []
        rt = SerialRuntime()
        rt.parallel_for([lambda i=i: seen.append(i) for i in range(5)])
        assert seen == [0, 1, 2, 3, 4]

    def test_parallel_executes_all(self):
        seen = set()
        with OmpRuntime(3) as rt:
            rt.parallel_for([lambda i=i: seen.add(i) for i in range(20)])
        assert seen == set(range(20))

    def test_nested_parallel_for_is_inlined(self):
        order = []

        def outer(i):
            rt.parallel_for([lambda j=j: order.append((i, j)) for j in range(3)])

        with OmpRuntime(2) as rt_outer:
            rt = rt_outer
            rt.parallel_for([lambda i=i: outer(i) for i in range(4)])
        assert len(order) == 12

    def test_exception_propagates(self):
        def boom():
            raise RuntimeError("task failed")

        with OmpRuntime(2) as rt:
            with pytest.raises(RuntimeError, match="task failed"):
                rt.parallel_for([boom, lambda: None])

    def test_empty_batch_is_noop(self):
        with OmpRuntime(2) as rt:
            rt.parallel_for([])

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            OmpRuntime(0)

    def test_map_helper(self):
        out = []
        SerialRuntime().map(out.append, [1, 2, 3])
        assert out == [1, 2, 3]

    def test_stats_width_recording(self):
        stats = KernelStats()
        rt = OmpRuntime(1, stats=stats)
        rt.parallel_for([lambda: None] * 7)
        assert stats.max_parallel_width == 7
        assert stats.parallel_stages == 1


@given(
    n=st.integers(min_value=1, max_value=20),
    r_shared=st.integers(min_value=2, max_value=5),
    base=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=25, deadline=None)
def test_property_recursive_fw_equals_reference(n, r_shared, base, seed):
    spec = FloydWarshallGep()
    t = fw_table(n, seed=seed)
    expect = gep_reference_vectorized(spec, t)
    got = t.copy()
    RecursiveKernel(spec, r_shared, base).run("A", got, got, got, got, 0, 0, 0, n)
    np.testing.assert_allclose(got, expect)


@given(
    n=st.integers(min_value=1, max_value=16),
    r_shared=st.integers(min_value=2, max_value=4),
    base=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=25, deadline=None)
def test_property_recursive_ge_equals_reference(n, r_shared, base, seed):
    spec = GaussianEliminationGep()
    t = ge_table(n, seed=seed)
    expect = gep_reference_vectorized(spec, t)
    got = t.copy()
    RecursiveKernel(spec, r_shared, base).run("A", got, got, got, got, 0, 0, 0, n)
    np.testing.assert_allclose(got, expect, rtol=1e-9, atol=1e-9)


# ----------------------------------------------------------------------
# fused semiring fold (``apply_steps`` / ``Semiring.fold_steps``)
# ----------------------------------------------------------------------
_INF, _NAN = float("inf"), float("nan")
#: value alphabets per semiring: ``tame`` keeps every pivot-diagonal
#: entry on the side of ``one`` where pivot-row/column updates are
#: no-ops (the precondition for the scalar in-place loop to agree with
#: a vectorized step on aliased tiles); ``wild`` adds the other sign and
#: the annihilator's opposite infinity — what trips the guard.
_ALPHABETS = {
    "tropical": ([0.0, -0.0, 1.0, 2.5, _INF, _NAN], [-1.0, -3.0, -_INF]),
    "maxplus": ([0.0, -0.0, -1.0, -2.5, -_INF, _NAN], [1.0, 3.0, _INF]),
    "boolean": ([False, True], []),
}


def _per_k_loop(spec, x, u, v):
    """The sequential reference: one guarded ``apply_k`` per pivot step."""
    for kk in range(u.shape[1]):
        spec.apply_k(x, u[:, kk], v[kk, :], None, None)


def _case_operands(case, x, u, v):
    """Alias ``u``/``v`` to ``x`` the way kernel case ``case`` does."""
    return (x if case in "AC" else u), (x if case in "AB" else v)


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_property_fused_fold_equals_sequential_steps(data):
    """semiring x case x ragged shape x {±inf, -0.0, NaN}: the fused fast
    path is bit-identical to the per-``k`` ``apply_k`` loop (NaN positions
    and zero signs included) and equal to the scalar loop; for case D, a
    stack of 1..5 such tiles is bit-identical to as many separate calls."""
    name = data.draw(st.sampled_from(sorted(_ALPHABETS)))
    case = data.draw(st.sampled_from("ABCDD"))  # D twice: it alone stacks
    tame, wild = _ALPHABETS[name]
    wild_draw = data.draw(st.booleans())
    values = st.sampled_from(tame + (wild if wild_draw else []))
    pivot = data.draw(st.integers(1, 7))
    mi = pivot if case in "AB" else data.draw(st.integers(1, 7))
    mj = pivot if case in "AC" else data.draw(st.integers(1, 7))
    spec = SemiringGep(name)

    def tile(rows, cols):
        cells = data.draw(
            st.lists(values, min_size=rows * cols, max_size=rows * cols)
        )
        return np.array(cells, dtype=spec.dtype).reshape(rows, cols)

    x0, u0, v0 = tile(mi, mj), tile(mi, pivot), tile(pivot, mj)
    # a small budget makes multi-chunk folds (and chunk < 2) reachable
    budget = data.draw(st.sampled_from([1, 16, 64, 32768]))

    fused = x0.copy()
    u, v = _case_operands(case, fused, u0, v0)
    with mock.patch.object(semiring_base, "_FOLD_CHUNK_ELEMS", budget):
        gep_tile_update(spec, fused, u, v, None, 3, 5, 0, 64)

    stepped = x0.copy()
    _per_k_loop(spec, stepped, *_case_operands(case, stepped, u0, v0))
    assert fused.tobytes() == stepped.tobytes()
    assert np.array_equal(fused, stepped, equal_nan=name != "boolean")

    if case == "D" or not wild_draw:
        looped = x0.copy()
        lu, lv = _case_operands(case, looped, u0, v0)
        gep_tile_update_loop(spec, looped, lu, lv, None, 3, 5, 0, 64)
        assert np.array_equal(fused, looped, equal_nan=name != "boolean")

    if case != "D":
        return
    depth = data.draw(st.integers(1, 5))
    stack = [(x0, u0, v0)] + [
        (tile(mi, mj), tile(mi, pivot), tile(pivot, mj)) for _ in range(depth - 1)
    ]
    pristine = [x.tobytes() for x, _u, _v in stack]
    solo = []
    for x, u, v in stack:
        out = x.copy()
        gep_tile_update(spec, out, u, v, None, 3, 5, 0, 64)
        solo.append(out.tobytes())
    xs, us, vs = (np.array(part) for part in zip(*stack))
    calls = [("D", x, u, v, None, 3, 5, 0, 64) for x, u, v in stack]
    with mock.patch.object(semiring_base, "_FOLD_CHUNK_ELEMS", budget):
        # whatever the budget, a stack handed to the kernel is folded right
        # (multi-chunk, or sequentially when two steps do not fit) ...
        gep_tile_update(spec, xs, us, vs, None, [3] * depth, [5] * depth, 0, 64)
        # ... and the task path stacks only what the budget allows (None:
        # left to the tile-by-tile path), splitting deeper groups
        outs = IterativeKernel(spec).run_stacks(calls)
    assert [x.tobytes() for x in xs] == solo
    room = budget // (x0.size * pivot)  # tiles per stack the budget allows
    for at, (out, want) in enumerate(zip(outs, solo)):
        odd_one_out = room >= 2 and depth % room == 1 and at == depth - 1
        assert (out is None) == (x0.size < 2 or room < 2 or odd_one_out)
        if out is not None:
            assert out.tobytes() == want and out.base is None
    assert [x.tobytes() for x, _u, _v in stack] == pristine


def test_stack_depth_follows_the_fold_budget(fw_spec, monkeypatch):
    """A stack is as deep as the whole fold fits ``_FOLD_CHUNK_ELEMS``:
    64 tiles at 8x8, 8 at 16x16, 2 at 25x25, none from 26x26 up; a deeper
    group splits, and a tile left over alone is not stacked."""
    depths = []
    run = IterativeKernel.run

    def recording_run(self, case, x, *rest, **kw):
        depths.append(len(x))
        return run(self, case, x, *rest, **kw)

    monkeypatch.setattr(IterativeKernel, "run", recording_run)
    rng = np.random.default_rng(6)
    for edge, tiles, stacks, alone in [
        (8, 70, [64, 6], 0), (16, 17, [8, 8], 1), (25, 3, [2], 1), (26, 3, [], 3),
    ]:
        calls = [
            ("D", *(rng.random((edge, edge)) for _ in range(3)), None, 0, 0, 0, 64)
            for _ in range(tiles)
        ]
        del depths[:]
        outs = IterativeKernel(fw_spec).run_stacks(calls)
        assert depths == stacks
        assert sum(out is None for out in outs) == alone


_GE_CELLS = [0.0, -0.0, 1.0, -2.5, 3.0, 0.1, 1e308, -1e308, 1e-308, _INF, _NAN]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_property_ge_stack_equals_separate_tiles(data):
    """GE twin of the stack check: ``apply_steps`` over a stack — one
    pivot tile for all, or one per tile — gives every tile the bits it
    gets alone (same multiply / divide / subtract, step by step)."""
    spec = GaussianEliminationGep()
    depth = data.draw(st.integers(1, 5))
    mi, mj, pivot = (data.draw(st.integers(1, 6)) for _ in range(3))
    shared_w = data.draw(st.booleans())

    def draw(*shape):
        size = int(np.prod(shape))
        cells = data.draw(
            st.lists(st.sampled_from(_GE_CELLS), min_size=size, max_size=size)
        )
        return np.array(cells, dtype=spec.dtype).reshape(shape)

    xs, us, vs = draw(depth, mi, mj), draw(depth, mi, pivot), draw(depth, pivot, mj)
    ws = draw(pivot, pivot) if shared_w else draw(depth, pivot, pivot)
    offsets = [40 + 7 * m for m in range(depth)]  # below/right of the pivot: unmasked
    calls = [
        ("D", xs[m].copy(), us[m], vs[m], ws if shared_w else ws[m],
         offsets[m], offsets[m], 0, 64)
        for m in range(depth)
    ]
    with np.errstate(all="ignore"):
        solo = []
        for m in range(depth):
            out = xs[m].copy()
            spec.apply_steps(out, us[m], vs[m], ws if shared_w else ws[m], pivot)
            solo.append(out.tobytes())
        stats = KernelStats()
        outs = IterativeKernel(spec).run_stacks(calls, stats)
        spec.apply_steps(xs, us, vs, ws, pivot)
    assert [x.tobytes() for x in xs] == solo
    stacked = depth >= 2 and mi * mj >= 2
    assert [out is not None for out in outs] == [stacked] * depth
    assert stats.invocations == ({"D": depth} if stacked else {})
    if stacked:
        assert [out.tobytes() for out in outs] == solo


#: Panel alphabets.  GE's has no input NaN: a B / C panel multiplies the
#: tile itself, which can hold a NaN the arithmetic produced (the
#: platform's default NaN), and NumPy does not fix which operand's NaN a
#: commutative ufunc returns (its SIMD body and scalar tail order them
#: differently), so the sign bit of NaN * NaN of opposite signs depends
#: on a cell's place in the loop, not on the arithmetic.  Produced NaNs
#: all share one sign.  The tropical panels keep input NaNs: a tile that
#: ends with one is redone alone, in the 2-D shape it has solo.
_PANEL_CELLS = {
    "fw": (FloydWarshallGep, sum(_ALPHABETS["tropical"], [])),
    "maxplus": (lambda: SemiringGep("maxplus"), sum(_ALPHABETS["maxplus"], [])),
    "tc": (TransitiveClosureGep, _ALPHABETS["boolean"][0]),
    "ge": (GaussianEliminationGep, [c for c in _GE_CELLS if c == c]),
}


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_property_bc_panel_equals_separate_tiles(data):
    """A pivot row's B tiles (or a pivot column's C tiles) in one task's
    call list go to the kernel as panels: each tile bit-identical to
    ``update_tile`` alone, every input untouched, and one ``record_base``
    per tile with the same updates.  FW / max-plus / TC / GE, 1..8 tiles
    with a ragged last one, GE masked (B at ``gi0 == gk0``, C at ``gj0 ==
    gk0``; a partly inactive pivot range; offsets whose masks differ),
    and opposite infinities, so a tile of a tropical panel trips the NaN
    guard and is redone alone."""
    name = data.draw(st.sampled_from(sorted(_PANEL_CELLS)))
    make_spec, cells = _PANEL_CELLS[name]
    spec = make_spec()
    if name == "ge" and data.draw(st.booleans()):
        spec = GaussianEliminationGep(n_pivots=data.draw(st.integers(8, 14)))
    case = data.draw(st.sampled_from("BC"))
    pivot, depth, extent = (data.draw(st.integers(1, 8)) for _ in range(3))
    widths = [extent] * (depth - 1) + [data.draw(st.integers(1, extent))]
    gk0 = 8
    # the panel's free axis: past the pivot range (one shared mask), or
    # anywhere (masks may differ and the panel falls apart into tiles)
    past = data.draw(st.booleans())
    starts = [
        gk0 + pivot + 3 * m if past else data.draw(st.integers(0, 20))
        for m in range(depth)
    ]

    def tile(rows, cols):
        drawn = data.draw(st.lists(st.sampled_from(cells), min_size=rows * cols,
                                   max_size=rows * cols))
        return np.array(drawn, dtype=spec.dtype).reshape(rows, cols)

    pivot_tile = tile(pivot, pivot)
    literal = data.draw(st.booleans())  # alias as the tile itself, or ALIAS_X
    calls = []
    for width, start in zip(widths, starts):
        if case == "B":
            x = tile(pivot, width)
            alias = x if literal else ALIAS_X
            calls.append(("B", x, pivot_tile, alias, pivot_tile, gk0, start, gk0, 64))
        else:
            x = tile(width, pivot)
            alias = x if literal else ALIAS_X
            calls.append(("C", x, alias, pivot_tile, pivot_tile, start, gk0, gk0, 64))
    pristine = [call[1].tobytes() for call in calls] + [pivot_tile.tobytes()]
    kernel = IterativeKernel(spec)
    solo_stats, stats = KernelStats(keep_log=True), KernelStats(keep_log=True)
    with np.errstate(all="ignore"):
        solo = [update_tile(kernel, call, solo_stats).tobytes() for call in calls]
        outs = update_tiles(kernel, calls, stats)
        stacked = kernel.run_stacks(calls)
    assert [out.tobytes() for out in outs] == solo
    assert [call[1].tobytes() for call in calls] + [pivot_tile.tobytes()] == pristine
    assert Counter(stats.log) == Counter(solo_stats.log)
    assert stats.updates == solo_stats.updates
    same_shape = widths.count(extent)
    panel = same_shape >= 2 and pivot * extent >= 2
    assert [out is not None for out in stacked] == [
        panel and width == extent for width in widths
    ]
    for out, want in zip(stacked, solo):
        assert out is None or (out.tobytes() == want and out.base is None)


def test_panel_depth_follows_the_fold_budget(fw_spec, monkeypatch):
    """A panel is at most ``_FOLD_CHUNK_ELEMS // tile.size`` deep — 3 at
    96x96, none from 182x182 up — and shares one pivot: a B call on
    another pivot object, or another row offset, starts another panel."""
    depths = []
    run = IterativeKernel.run

    def recording_run(self, case, x, *rest, **kw):
        depths.append((case, x.shape[0] if x.ndim == 3 else 1))
        return run(self, case, x, *rest, **kw)

    monkeypatch.setattr(IterativeKernel, "run", recording_run)
    rng = np.random.default_rng(8)
    kernel = IterativeKernel(fw_spec)
    for edge, tiles, panels in [(96, 7, [3, 3, 1]), (182, 2, [1, 1])]:
        pivot = rng.random((edge, edge))
        calls = [
            ("B", rng.random((edge, edge)), pivot, ALIAS_X, pivot, 0, edge * (m + 1), 0, 4096)
            for m in range(tiles)
        ]
        del depths[:]
        update_tiles(kernel, calls)
        assert sorted((d for _c, d in depths), reverse=True) == panels
    other = rng.random((8, 8))
    calls = [
        ("B", rng.random((8, 8)), pivot, ALIAS_X, pivot, 0, 8, 0, 64)
        for pivot in (other, other, other.copy())
    ] + [("B", rng.random((8, 8)), other, ALIAS_X, other, 8, 16, 0, 64)]
    del depths[:]
    update_tiles(kernel, calls)
    assert sorted(depths) == [("B", 1), ("B", 1), ("B", 2)]


def test_single_cell_tile_keeps_zero_signs(fw_spec):
    """On a 1x1 tile the k axis of the broadcast is the contiguous one,
    which NumPy reduces in SIMD lane order — a different tie-break on
    ``±0.0`` than the step loop's.  Such tiles stay sequential, and a
    task's list of them is never stacked."""
    rng = np.random.default_rng(0)
    cells = np.array([0.0, -0.0, 1.0, np.inf])
    kernel = IterativeKernel(fw_spec)
    for _ in range(150):
        pair = [
            [rng.choice(cells, size=s) for s in ((1, 1), (1, 32), (32, 1))]
            for _ in range(2)
        ]
        calls = [("D", x0, u, v, None, 40, 41, 0, 64) for x0, u, v in pair]
        assert kernel.run_stacks(calls) == [None, None]
        for x0, u, v in pair:
            got, want = x0.copy(), x0.copy()
            gep_tile_update(fw_spec, got, u, v, None, 40, 41, 0, 64)
            _per_k_loop(fw_spec, want, u, v)
            assert got.tobytes() == want.tobytes()


def test_overlapping_subviews_take_the_sequential_branch(fw_spec):
    """Recursive-kernel shape: ``v`` is a *different view object* over the
    same cells as ``x`` (so ``v is x`` is false).  Re-associating would
    read stale pivot rows; ``may_share_memory`` must route the call to
    the sequential branch."""
    rng = np.random.default_rng(5)
    base = rng.integers(1, 30, size=(4, 8)).astype(np.float64)
    pristine = base.copy()
    x, u, v = base[:, 4:], base[:, :4], base[:, 4:]
    assert v is not x and np.may_share_memory(x, v)
    gep_tile_update(fw_spec, x, u, v, None, 0, 4, 0, 8)

    stepped = pristine.copy()
    _per_k_loop(fw_spec, stepped[:, 4:], stepped[:, :4], stepped[:, 4:])
    assert base.tobytes() == stepped.tobytes()
    # the input discriminates: with v detached (independent operands,
    # hence the fused branch) the answer is a different one
    detached = pristine[:, 4:].copy()
    gep_tile_update(
        fw_spec, detached, pristine[:, :4], pristine[:, 4:].copy(), None, 0, 4, 0, 8
    )
    assert not np.array_equal(detached, base[:, 4:])


@pytest.mark.parametrize("name", ["counting", "real"])
def test_non_idempotent_semirings_keep_the_default_fold(name):
    """``+`` rounds (or overflows) and is not idempotent: these semirings
    must not inherit a re-associating ``fold_steps``."""
    sr = get_semiring(name)
    assert type(sr).fold_steps is Semiring.fold_steps
    spec = SemiringGep(sr)
    rng = np.random.default_rng(2)
    x0, u, v = (rng.integers(0, 5, size=(5, 5)).astype(sr.dtype) for _ in range(3))
    got, want = x0.copy(), x0.copy()
    gep_tile_update(spec, got, u, v, None, 0, 5, 10, 64)
    _per_k_loop(spec, want, u, v)
    assert got.tobytes() == want.tobytes()


def test_float32_table_keeps_the_default_fold(fw_spec, monkeypatch):
    """A table in another dtype than the semiring's never reaches the
    ``out=`` ufunc path (which would cast): same bits as per-``k``."""
    def boom(*a, **k):
        raise AssertionError("fused fold reached with a foreign dtype")

    monkeypatch.setattr(tropical, "fold_steps_idempotent", boom)
    rng = np.random.default_rng(3)
    pair = [
        [rng.random((6, 6)).astype(np.float32) for _ in range(3)] for _ in range(2)
    ]
    # ... and a task's list of such tiles is never stacked
    calls = [("D", x0, u, v, None, 0, 6, 12, 64) for x0, u, v in pair]
    assert IterativeKernel(fw_spec).run_stacks(calls) == [None, None]
    for x0, u, v in pair:
        got, want = x0.copy(), x0.copy()
        gep_tile_update(fw_spec, got, u, v, None, 0, 6, 12, 64)
        _per_k_loop(fw_spec, want, u, v)
        assert got.dtype == np.float32
        assert got.tobytes() == want.tobytes()


class TestGuardFallback:
    """The ±inf guard runs once per kernel call: a clean tile never takes
    a guarded step, a tile whose fold meets ``inf + (-inf)`` is redone,
    whole, through the guarded sequential default."""

    @staticmethod
    def _count_guarded(monkeypatch):
        calls = {"fold": 0, "mul": 0}
        default_fold, guarded_mul = Semiring.fold_steps, MinPlus.mul

        def counting_fold(self, x, u, v):
            calls["fold"] += 1
            return default_fold(self, x, u, v)

        def counting_mul(self, a, b):
            calls["mul"] += 1
            return guarded_mul(self, a, b)

        monkeypatch.setattr(Semiring, "fold_steps", counting_fold)
        monkeypatch.setattr(MinPlus, "mul", counting_mul)
        return calls

    def test_clean_tile_takes_no_guarded_step(self, fw_spec, monkeypatch):
        calls = self._count_guarded(monkeypatch)
        t = fw_table(12, seed=4)
        x = t[4:8, 8:12].copy()
        gep_tile_update(
            fw_spec, x, t[4:8, 0:4].copy(), t[0:4, 8:12].copy(), None, 4, 8, 0, 12
        )
        assert calls == {"fold": 0, "mul": 0}

    def test_opposite_infinities_redo_the_call_guarded(self, fw_spec, monkeypatch):
        rng = np.random.default_rng(9)
        x0, u, v = (rng.integers(1, 20, size=(4, 4)).astype(float) for _ in range(3))
        u[1, 2] = np.inf
        v[2, 3] = -np.inf
        want = x0.copy()
        _per_k_loop(fw_spec, want, u, v)  # today's result, computed first

        calls = self._count_guarded(monkeypatch)
        got = x0.copy()
        gep_tile_update(fw_spec, got, u, v, None, 4, 8, 0, 12)
        assert calls == {"fold": 1, "mul": 4}  # one redo, one mul per step
        assert got.tobytes() == want.tobytes()
        assert not np.isnan(got).any()
        assert got[0, 3] == -np.inf  # finite + (-inf) still wins the min
        assert got[1, 3] == min(x0[1, 3], *(u[1, k] + v[k, 3] for k in (0, 1, 3)))

    def test_one_tile_of_a_stack_trips_the_guard(self, fw_spec, monkeypatch):
        """The guard checks the stack once; only the tile that met
        ``inf + (-inf)`` is restored and redone, alone."""
        rng = np.random.default_rng(11)
        xs, us, vs = (rng.integers(1, 20, size=(4, 4, 4)).astype(float) for _ in range(3))
        us[2, 1, 2] = np.inf
        vs[2, 2, 3] = -np.inf
        solo = []
        for m in range(4):
            out = xs[m].copy()
            gep_tile_update(fw_spec, out, us[m], vs[m], None, 4, 8, 0, 12)
            solo.append(out.tobytes())

        calls = self._count_guarded(monkeypatch)
        gep_tile_update(fw_spec, xs, us, vs, None, [4] * 4, [8] * 4, 0, 12)
        assert calls == {"fold": 1, "mul": 4}  # one tile's steps, no more
        assert [x.tobytes() for x in xs] == solo
        assert not np.isnan(xs).any()

    def test_one_tile_of_a_panel_trips_the_guard(self, fw_spec, monkeypatch):
        """A B panel shares its pivot but not its tiles: only the tile
        whose own row meets the pivot's ``inf`` with ``-inf`` is restored
        and redone, alone."""
        rng = np.random.default_rng(12)
        pivot = rng.integers(1, 20, size=(4, 4)).astype(float)
        pivot[1, 2] = np.inf
        tiles = [rng.integers(1, 20, size=(4, 5)).astype(float) for _ in range(4)]
        tiles[2][2, 3] = -np.inf
        calls = [
            ("B", x, pivot, ALIAS_X, pivot, 4, 8 + 5 * m, 4, 32)
            for m, x in enumerate(tiles)
        ]
        kernel = IterativeKernel(fw_spec)
        solo = [update_tile(kernel, call).tobytes() for call in calls]

        calls_seen = self._count_guarded(monkeypatch)
        outs = kernel.run_stacks(calls)
        assert calls_seen == {"fold": 1, "mul": 4}  # one tile's steps, no more
        assert [out.tobytes() for out in outs] == solo
        assert np.isinf(outs[2]).any() and not np.isnan(outs[2]).any()
