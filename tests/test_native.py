"""The compiled tile folds (:mod:`repro.kernels.native`).

The NumPy step loop is the oracle — ``GepSpec.apply_k`` once per pivot
step, what ``GepSpec.apply_steps`` runs where the C declines: on every
layout the C covers, each of the four entry points must leave exactly
its bytes — for min-plus / max-plus the semiring's guarded ⊙, NaN
included — and on every layout it does not cover it must decline and
touch nothing.  The build and fallback cases each run in a subprocess
with a private ``XDG_CACHE_HOME``.
"""

from __future__ import annotations

import json
import os
import shlex
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core.gep import (
    FloydWarshallGep,
    GaussianEliminationGep,
    GepSpec,
    SemiringGep,
    TransitiveClosureGep,
)
from repro.kernels import IterativeKernel, KernelStats, RecursiveKernel, gep_tile_update, native
from repro.kernels.base import ALIAS_X
from repro.semiring import MaxPlus, MinPlus

from .conftest import apply_k_steps

REPO_ROOT = Path(__file__).resolve().parents[1]

#: values that make ties, infinities and NaN likely in a small fuzz
SPECIALS = np.array([0.0, -0.0, 1.0, -1.0, 2.0, np.inf, -np.inf])


def _values(rng, shape, nan=False):
    pool = np.concatenate([SPECIALS, [np.nan]]) if nan else SPECIALS
    out = rng.choice(pool, size=shape)
    plain = rng.random(shape) < 0.4
    out[plain] = rng.integers(-3, 4, size=int(plain.sum())).astype(float)
    return out


#: the spec whose ``apply_k`` each entry point computes
SPECS = {
    "minplus": SemiringGep(MinPlus()),
    "maxplus": SemiringGep(MaxPlus()),
    "orand": TransitiveClosureGep(),
    "ge": GaussianEliminationGep(),
}


def _tiles(x, u, v, w):
    """The operands of a tile, or of each tile of a stack ``(M, rows,
    cols)`` (``w`` one pivot tile for all, or one per tile)."""
    if x.ndim == 2:
        return [(x, u, v, w)]
    return [(x[m], u[m], v[m], w if w is None or w.ndim == 2 else w[m]) for m in range(len(x))]


def _numpy_fold(entry, x, u, v, w=None):
    """The NumPy step loop of a tile, or of each tile of a stack alone."""
    with np.errstate(all="ignore"):
        for ops in _tiles(x, u, v, w):
            apply_k_steps(SPECS[entry], *ops)


def _native_fold(entry, x, u, v, w=None):
    """The compiled fold of a tile, or of each tile of a stack alone."""
    for ops in _tiles(x, u, v, w):
        assert native.fold(entry, *ops), "the compiled fold declined"


def _operands(entry, rng, stack, rows, cols, pivot):
    lead = () if stack is None else (stack,)
    if entry == "orand":
        def make(*shape):  # bytes other than 0 / 1 read as True too
            return (rng.integers(0, 3, lead + shape) * (rng.random(lead + shape) < 0.3)
                    ).astype(np.uint8).view(np.bool_)
    else:
        def make(*shape):
            return _values(rng, lead + shape, nan=entry != "ge")
    x, u, v = make(rows, cols), make(rows, pivot), make(pivot, cols)
    w = None
    if entry == "ge":
        w = _values(rng, (pivot, pivot))
        if stack is not None and rng.random() < 0.5:  # a pivot tile per tile
            w = _values(rng, (stack, pivot, pivot))
    return x, u, v, w


def _check(entry, x, u, v, w=None, view=None):
    """Fold copies of the operands both ways — NumPy and C, tile by
    tile — and compare every byte.  ``view`` rebuilds
    aliasing operands from the copy of ``x`` each side gets."""
    results = []
    for run in (_numpy_fold, _native_fold):
        xc = x.copy()
        run(entry, *(view(xc) if view is not None else (xc, u, v, w)))
        results.append(xc)
    assert results[0].tobytes() == results[1].tobytes()


ENTRIES = ["minplus", "maxplus", "orand", "ge"]


@pytest.mark.parametrize("entry", ENTRIES)
def test_fuzz_matches_numpy_fold(entry, compiled):
    """Random tiles and stacks — ragged, single-cell, deep and shallow,
    ±0 ties, ±inf, NaN (GE: produced NaN only) — fold to NumPy's bits."""
    rng = np.random.default_rng(sum(map(ord, entry)))
    for _ in range(300):
        stack = None if rng.random() < 0.4 else int(rng.integers(1, 9))
        rows, cols, pivot = (int(d) for d in rng.integers(1, 13, size=3))
        _check(entry, *_operands(entry, rng, stack, rows, cols, pivot))


@pytest.mark.parametrize("entry", ENTRIES)
def test_shared_pivot_panels_with_stride_zero(entry, compiled):
    """One batch holding a B panel (three calls on one pivot object, ``v``
    aliasing each tile), a C panel (``u`` aliasing, one shared ``v``) and
    D calls whose ``u`` / ``v`` are ``np.broadcast_to`` views with a
    stride of 0 folds every tile to the NumPy fold's bytes."""
    rng = np.random.default_rng(7)
    x, shared_u, shared_v, w = _operands(entry, rng, None, 6, 6, 6)
    tiles = [x, x[::-1].copy(), x.T.copy()]
    bu = np.broadcast_to(shared_u[:1], shared_u.shape)  # one row, stride 0
    bv = np.broadcast_to(shared_v[:, :1], shared_v.shape)  # one column, stride 0
    assert bu.strides[0] == 0 and bv.strides[1] == 0
    calls = [("B", t, shared_u, ALIAS_X, w, 0, 6 + 6 * m, 0, 64) for m, t in enumerate(tiles)]
    calls += [("C", t, t, shared_v, w, 6 + 6 * m, 0, 0, 64) for m, t in enumerate(tiles)]
    calls += [("D", t, bu, bv, w, 6, 6 + 6 * m, 0, 64) for m, t in enumerate(tiles)]
    want = []
    for _case, t, u, v, _w, *_ in calls:
        out = t.copy()
        _numpy_fold(entry, out, out if u is t else u, out if v is ALIAS_X else v, w)
        want.append(out.tobytes())
    copies = [call[1].copy() for call in calls]
    done = native.fold_calls(entry, calls, copies, ALIAS_X, {64: 64}, (False, False))
    assert None not in done
    assert [c.tobytes() for c in copies] == want


@pytest.mark.parametrize("entry", ENTRIES)
def test_aliased_cases_and_overlapping_views(entry, compiled):
    """Cases A (``u = v = w = x``), B (``v = x``), C (``u = x``) and the
    recursive kernel's sub-views of one tile, which overlap ``x``
    without being it (``x`` with strided rows); tiles of 16, 17 and 33
    reach the two-phase fold's register blocks and, quartered, its
    strided rows."""
    rng = np.random.default_rng(11)
    for trial in range(23):
        n = int(rng.integers(2, 11)) if trial < 20 else (16, 17, 33)[trial - 20]
        x, u, v, w = _operands(entry, rng, None, n, n, n)
        if entry == "ge":  # a pivot far from 0 keeps the values tame
            x[np.diag_indices(n)] = 4.0
        _check(entry, x, u, v, w, view=lambda c: (c, c, c, c if w is not None else None))
        _check(entry, x, u, v, w, view=lambda c: (c, u, c, w))
        _check(entry, x, u, v, w, view=lambda c: (c, c, v, w))
        big = _operands(entry, rng, None, 2 * n, 2 * n, 2 * n)[0]
        h = n

        def quarter(c):  # update the top-right quarter from its row and column
            return (c[:h, h:], c[:h, :h], c[:h, h:], c[:h, :h] if w is not None else None)

        _check(entry, big, None, None, w, view=quarter)

        def lower(c):  # a D tile whose u and v interleave with its rows
            return (c[h:, h:], c[h:, :h], c[:h, h:], c[:h, :h] if w is not None else None)

        _check(entry, big, None, None, w, view=lower)


#: column counts that reach every register-block remainder: the
#: cell-by-cell tail alone, one 8-column block, 8 + tail, one 16-column
#: block, 16 + 8 + tail, ..., and the benchmark's 96
BLOCK_COLS = [*range(1, 8), 8, *range(9, 16), 16, *range(17, 41), 96]

#: the values injected into otherwise NaN- and inf-free operands, one
#: set per side of the min-plus / max-plus precheck's verdict
PRECHECK_CASES = {
    "finite": (),
    "nan_in_x": (("x", np.nan),),
    "nan_in_u": (("u", np.nan),),
    "nan_in_v": (("v", np.nan),),
    "pinf_u_ninf_v": (("u", np.inf), ("v", -np.inf)),
    "ninf_u_pinf_v": (("u", -np.inf), ("v", np.inf)),
    "same_sign_inf": (("u", np.inf), ("v", np.inf), ("x", -np.inf), ("x", np.inf)),
    "same_sign_ninf": (("u", -np.inf), ("v", -np.inf), ("x", np.inf)),
    "zero_ties": None,  # every operand ±0.0
}


def _blocked_operands(entry, rng, stack, rows, cols, pivot, layout, inject):
    """Operands of one case-D call (``u`` / ``v`` apart from ``x``) and
    the ``view`` that lays them out on each side's copy of ``x``:
    ``strided_rows`` pads ``x``'s rows and tiles, ``shared`` broadcasts
    one ``u`` / ``v`` over the stack (stride 0), ``transposed`` gives
    ``u`` and ``v`` strided columns."""
    lead = () if stack is None else (stack,)
    shared = layout == "shared" and stack is not None
    pool = [0.0, -0.0] if inject is None else [0.0, -0.0, 1.0, -1.0, 2.0, 3.0, -3.0]

    def make(shape, own=True):
        return rng.choice(pool, size=(lead if own else ()) + shape)

    x, u, v = make((rows, cols)), make((rows, pivot), not shared), make((pivot, cols), not shared)
    for name, value in inject or ():
        a = {"x": x, "u": u, "v": v}[name]
        a[np.unravel_index(rng.integers(a.size), a.shape)] = value
    if shared:
        u, v = (np.broadcast_to(a, lead + a.shape) for a in (u, v))
        assert u.strides[0] == v.strides[0] == 0
    elif layout == "transposed":
        u, v = (np.ascontiguousarray(np.swapaxes(a, -1, -2)).swapaxes(-1, -2) for a in (u, v))
    w = None
    if entry == "ge":
        w = rng.choice([4.0, -2.0, 0.5, 3.0], size=(pivot, pivot))
        if stack is not None and rng.random() < 0.5:
            w = rng.choice([4.0, -2.0, 0.5], size=(stack, pivot, pivot))
    if layout == "strided_rows":
        big = np.full(lead + (rows + 2, cols + 3), 5.0)
        big[..., :rows, :cols] = x
        return big, lambda c: (c[..., :rows, :cols], u, v, w)
    return x, lambda c: (c, u, v, w)


@pytest.mark.parametrize("case", list(PRECHECK_CASES))
@pytest.mark.parametrize("entry", ["minplus", "maxplus", "ge"])
def test_register_blocks_and_precheck_match_numpy(entry, case, compiled):
    """Case-D folds over every register-block remainder — rows mod 4 of
    0..3, columns 1..40 and 96, K of 1, 2 and 96 — in every case-D
    layout (a ``v`` with strided columns takes the k-outer loop), on
    each side of the precheck: NaN in one operand only, opposite
    infinities in ``u`` and ``v``, same-sign infinities only, ``±0``
    ties.  Each leaves every byte of the NumPy fold."""
    rng = np.random.default_rng([sum(map(ord, entry)), sum(map(ord, case))])
    layouts = ["contiguous", "strided_rows", "shared", "transposed"]
    for i, cols in enumerate(BLOCK_COLS):
        rows = 4 * int(rng.integers(0, 3)) + i % 4 or 4
        pivot = (1, 2, 96)[i % 3]
        stack = None if rng.random() < 0.3 else int(rng.integers(1, 9))
        layout = layouts[int(rng.integers(len(layouts)))]
        x, view = _blocked_operands(
            entry, rng, stack, rows, cols, pivot, layout, PRECHECK_CASES[case]
        )
        results = []
        for run in (_numpy_fold, _native_fold):
            xc = x.copy()
            run(entry, *view(xc))
            results.append(xc)
        assert results[0].tobytes() == results[1].tobytes()


#: PRECHECK_CASES, plus finite ±1.7e308 sums that overflow into the
#: infinity opposite a present one: its sign (-1.0: a -inf formed next to
#: a +inf, which min-plus keeps; 1.0: the reverse, which max-plus keeps)
PANEL_PRECHECK_CASES = {**PRECHECK_CASES, "overflow_to_ninf": -1.0, "overflow_to_pinf": 1.0}

#: pivot-step counts reaching every 4-row block remainder of case B's
#: phases (and of case C's, on x's transpose), and the benchmark's 96
PANEL_STEPS = (1, 2, 3, 7, 96)


def _panel_operands(rng, panel, strip, steps, layout, inject):
    """One case-B (``v`` is ``x``) or case-C (``u`` is ``x``) tile and its
    pivot: ``strip`` is the axis the register strips run along (B's
    columns, C's rows), ``steps`` the other.  ``inject`` names ``x`` and
    the pivot as a case-D call would (B's ``v`` and C's ``u`` are ``x``);
    an overflow sign plants ``x[k1]`` and a pivot cell at ``sign *
    1.7e308``, whose sum makes ``x[k2]`` ``sign * inf`` at step ``k1``,
    which meets a pivot ``-sign * inf`` at step ``k2``.  Returns ``(x,
    pivot)``, the pivot transposed in memory for ``layout ==
    "transposed"``."""
    pool = [0.0, -0.0] if inject is None else [0.0, -0.0, 1.0, -1.0, 2.0, 3.0, -3.0]
    rows, cols = (steps, strip) if panel == "B" else (strip, steps)
    x, pivot = rng.choice(pool, size=(rows, cols)), rng.choice(pool, size=(steps, steps))
    # in C's transpose x's columns are rows, and the pivot reads as its transpose
    xt, pt = (x, pivot) if panel == "B" else (x.T, pivot.T)
    if isinstance(inject, float) and steps > 1:
        k1, k2 = sorted(rng.choice(steps, size=2, replace=False))
        j, i = int(rng.integers(strip)), int(rng.integers(steps))
        xt[k1, j] = pt[k2, k1] = inject * 1.7e308
        pt[i, k2] = -inject * np.inf
    elif isinstance(inject, float):
        xt[0, 0], pt[0, 0] = inject * 1.7e308, -inject * np.inf
    for name, value in inject if isinstance(inject, tuple) else ():
        a = x if name == {"B": "v", "C": "u"}[panel] or name == "x" else pivot
        a[np.unravel_index(rng.integers(a.size), a.shape)] = value
    if layout == "transposed":
        pivot = np.ascontiguousarray(pivot.T).T
    return x, pivot


@pytest.mark.parametrize("case", list(PANEL_PRECHECK_CASES))
@pytest.mark.parametrize("panel", ["B", "C"])
@pytest.mark.parametrize("entry", ["minplus", "maxplus"])
def test_two_phase_panels_and_precheck_match_numpy(entry, panel, case, compiled):
    """Case-B / case-C folds — the two-phase loop — over every register
    strip remainder (B's columns, C's rows: 1..40 and 96), 4-row block
    remainders of K (1, 2, 3, 7, 96), with ``x``'s rows contiguous or
    strided and the pivot contiguous or transposed, on each side of the
    precheck — every case-D injection, and finite sums overflowing into
    the infinity opposite a present one — leave every byte of the NumPy
    fold: through ``fold`` (``x`` passed as itself, or as a second view
    of its memory) and through ``fold_calls`` (``ALIAS_X`` or the tile
    itself; some calls' active steps cut short by ``ends``)."""
    rng = np.random.default_rng([sum(map(ord, entry)), sum(map(ord, panel + case))])
    layouts = ["contiguous", "strided_rows", "transposed"]
    for i, strip in enumerate(BLOCK_COLS):
        steps = PANEL_STEPS[i % len(PANEL_STEPS)]
        layout = layouts[int(rng.integers(len(layouts)))]
        tile, pivot = _panel_operands(rng, panel, strip, steps, layout, PANEL_PRECHECK_CASES[case])
        rows, cols = tile.shape
        active = steps if rng.random() < 0.7 else int(rng.integers(0, steps + 1))

        def lay(t):
            """A private copy of the tile, its rows padded for strided_rows."""
            if layout != "strided_rows":
                return t.copy()
            big = np.full((rows + 2, cols + 3), 5.0)
            big[:rows, :cols] = t
            return big[:rows, :cols]

        def numpy_fold(xc, k):
            u, v = (pivot[:, :k], xc[:k]) if panel == "B" else (xc[:, :k], pivot[:k])
            _numpy_fold(entry, xc, u, v)

        expect, full = lay(tile), lay(tile)
        numpy_fold(expect, active)
        numpy_fold(full, steps)
        x = lay(tile)
        other = x if rng.random() < 0.5 else x[:, :]  # the same memory, another object
        ops = (pivot, other) if panel == "B" else (other, pivot)
        assert native.fold(entry, x, *ops)
        assert x.tobytes() == full.tobytes()
        alias = ALIAS_X if rng.random() < 0.5 else tile
        u, v = (pivot, alias) if panel == "B" else (alias, pivot)
        call = (panel, tile, u, v, None, 0, 0, 0, 1000)
        copies = [lay(tile)]
        done = native.fold_calls(entry, [call], copies, ALIAS_X, {1000: active}, (False, False))
        assert done == [rows * cols * active]
        assert copies[0].tobytes() == expect.tobytes()


def _guarded(sr, x, u, v):
    """The guarded step loop, tile by tile."""
    expect = x.copy()
    for m in range(x.shape[0]):
        apply_k_steps(SemiringGep(sr), expect[m], u[m], v[m])
    return expect


def test_compiled_tropical_fold_guards_opposite_infinities(compiled):
    """``inf + (-inf)`` is the semiring zero inside the C: one call
    leaves the guarded bytes, no NaN, for a stack where one tile meets
    opposite infinities and for the aliased cases A (``u = v = x``), B
    (``v = x``) and C (``u = x``) on a 20 x 20 tile, where they meet in
    the two-phase fold's first phase and in its second."""
    for sr in (MinPlus(), MaxPlus()):
        x = np.full((3, 4, 4), 5.0)
        u = np.zeros((3, 4, 2))
        v = np.zeros((3, 2, 4))
        u[1, 2, 0], v[1, 0, 3] = sr.zero, -sr.zero  # only tile 1 meets it
        got = x.copy()
        _native_fold(sr.native_fold, got, u, v)
        assert not np.isnan(got).any()
        assert got.tobytes() == _guarded(sr, x, u, v).tobytes()

        t = np.arange(400.0).reshape(20, 20) - 150.0
        t[1, 2], t[2, 3] = sr.zero, -sr.zero  # row 1 meets column 3 at k = 2
        t[13, 17], t[17, 5] = sr.zero, -sr.zero  # row 13 meets column 5 at k = 17
        for case in "ABC":
            x, expect = t.copy(), t.copy()
            ops = {"A": (x, x), "B": (t, x), "C": (x, t)}[case]
            expect_ops = {"A": (expect, expect), "B": (t, expect), "C": (expect, t)}[case]
            apply_k_steps(SemiringGep(sr), expect, *expect_ops)
            assert native.fold(sr.native_fold, x, *ops), case
            assert not np.isnan(x).any(), case
            assert x.tobytes() == expect.tobytes(), case


class Counted(np.ndarray):
    """An ``x`` whose ``copy`` calls are counted: no copy of ``x`` may
    wrap the compiled call."""

    copies = 0

    def copy(self, *args, **kwargs):
        Counted.copies += 1
        return np.ndarray.copy(self, *args, **kwargs)


@pytest.mark.parametrize("sr", [MinPlus(), MaxPlus()], ids=["minplus", "maxplus"])
def test_apply_steps_runs_no_copy_and_no_numpy_fold(sr, monkeypatch, compiled):
    """``GepSpec.apply_steps`` is one compiled call with final bits:
    no ``x.copy()`` and no NumPy step (``apply_k``) for each case-D tile,
    for the aliased cases A / B / C, for ``v`` a view overlapping ``x``,
    or with opposite infinities in the operands."""
    spec = SemiringGep(sr)
    rng = np.random.default_rng(5)
    x = rng.integers(-3, 4, (3, 6, 5)).astype(float)
    u = rng.integers(-3, 4, (3, 6, 4)).astype(float)
    v = rng.integers(-3, 4, (3, 4, 5)).astype(float)
    u[0, 1, 1] = v[2, 3, 0] = sr.zero
    v[1, 2, 4], u[1, 3, 2] = -sr.zero, sr.zero  # these two meet: inf + (-inf)
    expect = _guarded(sr, x, u, v)
    square = x[0, :5, :5].copy()
    square[1, 2], square[2, 4] = sr.zero, -sr.zero  # row 1 meets column 4
    aliased = {}
    for case in "ABC":
        want = square.copy()
        ops = {"A": (want, want), "B": (square, want), "C": (want, square)}[case]
        apply_k_steps(spec, want, *ops)
        aliased[case] = want

    def boom(*args, **kwargs):
        raise AssertionError("the NumPy fold ran on a compiled host")

    monkeypatch.setattr(Counted, "copies", 0)
    monkeypatch.setattr(SemiringGep, "apply_k", boom)
    stack = x.copy().view(Counted)
    for m in range(len(stack)):
        spec.apply_steps(stack[m], u[m], v[m], None, 4)
    assert not np.isnan(stack).any() and stack.tobytes() == expect.tobytes()
    for case, want in aliased.items():
        tile = square.copy().view(Counted)
        ops = {"A": (tile, tile), "B": (square, tile), "C": (tile, square)}[case]
        spec.apply_steps(tile, *ops, None, 5)
        assert tile.tobytes() == want.tobytes(), case
    tile = x[0].copy().view(Counted)  # v overlaps x without being it
    spec.apply_steps(tile, u[0], tile[:4].view(np.ndarray), None, 4)
    assert Counted.copies == 0


def test_fold_without_an_entry_declines_untouched():
    """A semiring with no compiled fold (``native_fold`` ``None``: the
    counting and real semirings) is declined, ``x`` untouched, so
    ``apply_steps`` runs its NumPy fold."""
    x = np.arange(12.0).reshape(3, 4)
    before = x.copy()
    assert native.fold(None, x, np.ones((3, 2)), np.ones((2, 4))) is False
    assert x.tobytes() == before.tobytes()


def test_the_semiring_package_imports_no_compiled_code(tmp_path):
    """``repro.semiring`` is NumPy only: importing the real package and
    taking a guarded tropical step leaves :mod:`repro.kernels` — and
    everything else of ``repro`` but the semirings and ``repro.util`` —
    unimported, since ``repro`` resolves its public names on first
    use."""
    script = """
        import json, sys
        import numpy as np
        from repro.semiring import MinPlus
        sr = MinPlus()
        x = np.zeros((4, 4))
        u, v = np.full((4, 1), np.inf), np.full((1, 4), -np.inf)
        sr.add_inplace(x, sr.mul(u, v))  # inf + (-inf) is the semiring zero
        assert x.tolist() == [[0.0] * 4] * 4
        print(json.dumps(sorted(m for m in sys.modules if m.partition(".")[0] == "repro")))
    """
    loaded = _finish(_child(script, tmp_path / "cache"))
    assert loaded == ["repro", "repro.semiring"] + sorted(
        f"repro.semiring.{m}" for m in ("base", "boolean", "real", "registry", "tropical")
    ) + ["repro.util"]
    assert not (tmp_path / "cache").exists()


#: values with no NaN and no ``-inf`` to meet the ``+inf``: every case-D
#: call over them clears the precheck and runs the plain compare (one
#: ``vminpd`` / ``vmaxpd`` per eight lanes on AVX-512); ``±1e308`` overflows
PLAIN_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, 1e308, -1e308])


@pytest.mark.parametrize("entry", ["minplus", "maxplus"])
def test_plain_compare_matches_the_numpy_steps_bit_for_bit(entry, compiled):
    """3,000 case-D calls the precheck proves clean — every register-block
    remainder, overflow to ``±inf``, ``±0`` ties — fold to the NumPy step
    loop's bytes; ``±0`` ties in both orders (``x`` +0 meeting a -0 step
    and the reverse) lead."""
    rng = np.random.default_rng(sum(map(ord, entry)) + 40)
    cases = [
        (np.full((4, 16), 0.0), np.full((4, 3), -0.0), np.full((3, 16), -0.0)),
        (np.full((4, 16), -0.0), np.full((4, 3), 0.0), np.full((3, 16), -0.0)),
    ]
    while len(cases) < 3000:
        lead = () if rng.random() < 0.4 else (int(rng.integers(1, 5)),)
        rows, pivot = (int(d) for d in rng.integers(1, 10, size=2))
        cols = int(rng.choice(BLOCK_COLS))
        cases.append(tuple(
            rng.choice(PLAIN_VALUES, size=lead + shape)
            for shape in ((rows, cols), (rows, pivot), (pivot, cols))
        ))
    for x, u, v in cases:
        expect, got = x.copy(), x.copy()
        _numpy_fold(entry, expect, u, v)
        _native_fold(entry, got, u, v)
        assert got.tobytes() == expect.tobytes()


#: values a masked GE fuzz draws from: ties of ±0, infinities (which
#: produce NaN — no input NaN: where an input NaN meets a produced one,
#: NumPy may return either), overflow at ±1e308
GE_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, np.inf, -np.inf, 1e308, -1e308])


def _ge_call(rng, case):
    """One masked-path GE call as the kernels make it: ``(x, operands,
    gi0, gj0, gk0, n_global, n_pivots)``, ``operands`` rebuilding the
    aliased ones from each side's copy of ``x``.  A B tile sits on the
    pivot row (``gi0 == gk0``), a C tile on the pivot column; offsets
    around the pivot give empty, partial and full corners, ``n_pivots``
    cuts the range before or inside the tile."""

    def values(*shape):
        out = rng.choice(GE_VALUES, size=shape)
        plain = rng.random(shape) < 0.5
        out[plain] = rng.integers(-3, 4, size=int(plain.sum())).astype(float)
        return out

    rows, cols = (int(d) for d in rng.integers(1, 14, size=2))
    if case == "A":
        cols = rows
    pivot = {"A": rows, "B": rows, "C": cols, "D": int(rng.integers(1, 14))}[case]
    x = values(rows, cols)
    u, v, w = values(rows, pivot), values(pivot, cols), values(pivot, pivot)
    gk0 = int(rng.integers(0, 24))
    gi0 = gk0 + int(rng.integers(-rows - 1, pivot + 2))
    gj0 = gk0 + int(rng.integers(-cols - 1, pivot + 2))
    if case == "B":
        gi0 = gk0
    elif case == "C":
        gj0 = gk0
    ops = {
        "A": lambda c: (c, c, c, c),
        "B": lambda c: (c, u, c, w),
        "C": lambda c: (c, c, v, w),
        "D": lambda c: (c, u, v, w),
    }[case]
    n_pivots = None if rng.random() < 0.5 else int(rng.integers(0, gk0 + pivot + 2))
    return x, ops, gi0, gj0, gk0, int(rng.integers(gk0, gk0 + 2 * pivot + 2)), n_pivots


def _ge_masked(x, ops, gi0, gj0, gk0, n, n_pivots, corner=True):
    spec = GaussianEliminationGep(n_pivots)
    if not corner:
        spec.apply_corner = lambda *args: False
    stats = KernelStats(keep_log=True)
    out = x.copy()
    with np.errstate(all="ignore"):
        gep_tile_update(spec, *ops(out), gi0, gj0, gk0, n, stats, "X")
    return out, stats


@pytest.mark.parametrize("case", ["A", "B", "C", "D"])
def test_ge_corner_fold_matches_the_per_step_path(case, monkeypatch, compiled):
    """Masked GE tiles through the compiled corner fold leave the NumPy
    per-step path's bytes and books: case A (``u = v = w = x``), B / C
    on the pivot row / column, rows and columns 1-13, corners empty,
    partial and full, ``n_pivots`` cutting the range before or inside
    it."""
    corners = []
    fold = native.fold

    def counted(*args, **kwargs):
        done = fold(*args, **kwargs)
        if kwargs.get("corner") is not None:
            corners.append(done)
        return done

    monkeypatch.setattr(native, "fold", counted)
    rng = np.random.default_rng(sum(map(ord, case)))
    for _ in range(250):
        call = _ge_call(rng, case)
        got, got_stats = _ge_masked(*call)
        want, want_stats = _ge_masked(*call, corner=False)
        assert got.tobytes() == want.tobytes(), call[2:]
        assert got_stats == want_stats
    assert corners and all(corners)


def test_ge_corner_fold_declines_float32(compiled):
    """A float32 GE table has no compiled fold: the corner declines,
    untouched, and the per-step NumPy path runs."""

    class GeF32(GaussianEliminationGep):
        dtype = np.dtype(np.float32)

    x = (np.arange(1.0, 17.0).reshape(4, 4) + 40 * np.eye(4)).astype(np.float32)
    before = x.copy()
    assert native.fold("ge", x, x, x, x, corner=(1, 1)) is False
    assert x.tobytes() == before.tobytes()
    spec = GeF32()
    assert spec.apply_corner(x, x, x, x, 4, 1, 1) is False
    got, want = x.copy(), x.copy()
    gep_tile_update(spec, got, got, got, got, 0, 0, 0, 4)
    for k in range(4):
        spec.apply_k(want, want[:, k], want[k, :], want[k, k], spec.sigma_mask(0, 0, (4, 4), k))
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "layout",
    ["float32", "strided_columns", "fortran", "negative_stride", "overlapping_rows",
     "read_only", "shape_mismatch"],
)
def test_layouts_outside_the_c_take_the_numpy_path(layout, compiled):
    """The wrapper checks dtype, contiguity, strides and shapes before
    every call: what it cannot hand to C it declines, untouched, and
    ``apply_steps`` still returns NumPy's answer."""
    rng = np.random.default_rng(3)
    x, u, v = (rng.random((6, 6)) for _ in range(3))
    if layout == "float32":
        x, u, v = (a.astype(np.float32) for a in (x, u, v))
    elif layout == "strided_columns":
        x = np.zeros((6, 12))[:, ::2]
    elif layout == "fortran":
        x = np.asfortranarray(x)
    elif layout == "negative_stride":
        u = u[::-1]
    elif layout == "overlapping_rows":
        x = np.lib.stride_tricks.as_strided(np.zeros(40), (6, 6), (8, 8))
    elif layout == "read_only":
        x.flags.writeable = False
    elif layout == "shape_mismatch":
        u = u[:, :5]
    before = x.copy()
    assert native.fold("minplus", x, u, v) is False
    assert x.tobytes() == before.tobytes()
    if layout in ("float32", "strided_columns", "fortran", "negative_stride"):
        spec = SemiringGep(MinPlus(x.dtype))
        expect = x.copy()
        apply_k_steps(spec, expect, u, v)
        spec.apply_steps(x, u, v, None, 6)
        assert x.tobytes() == expect.tobytes()


def test_ge_without_a_pivot_tile_is_declined(compiled):
    x = np.ones((2, 2))
    assert native.fold("ge", x, x.copy(), x.copy()) is False
    assert native.fold("minplus", x, x.copy(), x.copy(), x.copy()) is False


def test_describe_names_the_fold():
    """Both kernel families say which fold updates their tiles, and a
    spec no entry point covers says NumPy and why."""
    for spec in (FloydWarshallGep(), GaussianEliminationGep(), TransitiveClosureGep()):
        assert IterativeKernel(spec).describe()["fold"] == native.status()
        assert RecursiveKernel(spec).describe()["fold"] == native.status()
    real = SemiringGep("real")
    assert IterativeKernel(real).describe()["fold"].startswith("numpy: no compiled fold")
    assert MinPlus(np.float32).native_fold == "minplus"
    fw32 = SemiringGep(MinPlus(np.float32))
    assert RecursiveKernel(fw32).describe()["fold"].startswith("numpy: no compiled fold")


def test_solve_report_and_cli_print_the_fold(tmp_path, capsys):
    from repro.__main__ import main as cli_main
    from repro.core import run_gep
    from repro.workloads import random_digraph_weights

    _, report = run_gep(FloydWarshallGep(), random_digraph_weights(16, seed=1),
                        engine="local", r=4)
    assert report.summary()["kernel"]["fold"] == native.status()
    path = tmp_path / "r.json"
    assert cli_main(["solve", "apsp", "--engine", "spark", "--n", "16", "--r", "4",
                     "--report", str(path)]) == 0
    assert f"kernel fold: {native.status()}" in capsys.readouterr().out
    assert json.loads(path.read_text())["kernel"]["fold"] == native.status()


def test_process_backend_reports_what_its_workers_ran(monkeypatch):
    """The report of a ``backend="processes"`` solve carries the fold
    its workers reported, not the driver's own."""
    from repro.core import run_gep
    from repro.sparkle import SparkleContext
    from repro.workloads import random_digraph_weights

    with SparkleContext(2, 1, backend="processes") as sc:
        # after the fork: only the driver loses its library
        monkeypatch.setattr(native, "_lib", None)
        monkeypatch.setattr(native, "_status", "numpy: driver only")
        _, report = run_gep(FloydWarshallGep(), random_digraph_weights(32, seed=2),
                            engine="spark", r=4, sc=sc)
        assert sc.metrics.kernel_offloads > 0
        worker = sc.offload.worker_fold
    assert IterativeKernel(FloydWarshallGep()).describe()["fold"] == "numpy: driver only"
    assert worker is not None and worker != "numpy: driver only"
    assert report.kernel["fold"] == worker


# ----------------------------------------------------------------------
# the task batch: IterativeKernel.run_stacks hands a call list to C
# ----------------------------------------------------------------------
#: each spec's cell alphabet.  GE draws no input NaN: where an input NaN
#: meets one the arithmetic produced, NumPy's ufunc loop may return
#: either sign (``test_kernels._PANEL_CELLS``); ±inf still produce NaN.
BATCH_SPECS = {
    "fw": (FloydWarshallGep, [0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan]),
    "ge": (GaussianEliminationGep, [0.0, -0.0, 1.0, -1.0, 2.0, 0.5, 4.0, np.inf, -np.inf]),
    "tc": (TransitiveClosureGep, [False, True]),
}


def _task_calls(name, rng, cases="ABCD"):
    """One task's call list as ``_call_builders`` shapes it, on a table
    with ragged ``bounds=``: the pivot tile's A call (``ALIAS_X``), B / C
    calls on that one pivot object (aliased as ``ALIAS_X`` or as the
    tile itself), D calls whose ``u`` / ``v`` are shared by a row /
    column (GE's ``w`` the pivot), every tile pair including GE's masked
    corners; GE's ``n_pivots`` may cut the range inside a tile.  Returns
    ``(spec, calls)``."""
    make_spec, cells = BATCH_SPECS[name]
    sizes = [int(d) for d in rng.integers(1, 8, size=int(rng.integers(2, 5)))]
    bounds = [0, *np.cumsum(sizes).tolist()]
    n = bounds[-1]
    spec = make_spec()
    if name == "ge" and rng.random() < 0.6:
        spec = GaussianEliminationGep(int(rng.integers(0, n + 1)))
    table = rng.choice(np.array(cells, dtype=spec.dtype), size=(n, n))
    if name == "ge":
        table[np.diag_indices(n)] = rng.choice([4.0, -2.0, 0.5], size=n)

    def tile(i, j):
        return table[bounds[i]:bounds[i + 1], bounds[j]:bounds[j + 1]].copy()

    k = int(rng.integers(len(sizes)))
    gk0 = bounds[k]
    pivot = tile(k, k)
    us = {i: tile(i, k) for i in range(len(sizes))}
    vs = {j: tile(k, j) for j in range(len(sizes))}
    w_d = pivot if spec.needs_w else None
    calls = []
    if "A" in cases:
        calls.append(("A", tile(k, k), ALIAS_X, ALIAS_X, ALIAS_X, gk0, gk0, gk0, n))
    for other in range(len(sizes)):
        if other == k:
            continue
        if "B" in cases:
            x = tile(k, other)
            alias = x if rng.random() < 0.5 else ALIAS_X
            calls.append(("B", x, pivot, alias, pivot, gk0, bounds[other], gk0, n))
        if "C" in cases:
            x = tile(other, k)
            alias = x if rng.random() < 0.5 else ALIAS_X
            calls.append(("C", x, alias, pivot, pivot, bounds[other], gk0, gk0, n))
    if "D" in cases:
        for i in range(len(sizes)):
            for j in range(len(sizes)):
                if i != k and j != k:
                    calls.append(
                        ("D", tile(i, j), us[i], vs[j], w_d, bounds[i], bounds[j], gk0, n)
                    )
    order = rng.permutation(len(calls))
    return spec, [calls[m] for m in order]


def _operand_bytes(calls):
    return [op.tobytes() for call in calls for op in call[1:5] if isinstance(op, np.ndarray)]


@pytest.mark.parametrize("name", sorted(BATCH_SPECS))
@pytest.mark.parametrize("cases", ["A", "B", "C", "D", "ABCD"])
def test_batch_matches_numpy_and_the_per_tile_path(name, cases):
    """A task's call list through ``update_tiles`` — one C batch where
    the library loaded — leaves every tile the bytes of the NumPy path
    (the compiler hidden: ``update_tile`` per call) and of
    ``gep_tile_update`` tile by tile, writes no input, and books the
    same ``KernelStats``: equal to the per-tile path's, log included (in
    call order), on both sides."""
    from repro.kernels.base import update_tile, update_tiles

    from .conftest import numpy_only

    rng = np.random.default_rng([sum(map(ord, name)), sum(map(ord, cases))])
    for _ in range(40):
        spec, calls = _task_calls(name, rng, cases)
        kernel = IterativeKernel(spec)
        pristine = _operand_bytes(calls)
        with np.errstate(all="ignore"):
            batch_stats, tile_stats, numpy_stats = (KernelStats(keep_log=True) for _ in range(3))
            batch = update_tiles(kernel, calls, batch_stats)
            tiles = [update_tile(kernel, call, tile_stats) for call in calls]
            with numpy_only():
                numpy = update_tiles(kernel, calls, numpy_stats)
        want = [t.tobytes() for t in tiles]
        assert [t.tobytes() for t in batch] == want
        assert [t.tobytes() for t in numpy] == want
        assert _operand_bytes(calls) == pristine
        assert batch_stats == tile_stats
        assert numpy_stats == tile_stats


def test_batch_declines_what_the_c_does_not_cover(compiled):
    """float32 calls and calls with a negative-stride operand come back
    ``None``, their copies untouched, and ``update_tile``
    still give them NumPy's bytes; a non-contiguous tile (its copy is
    contiguous) and an operand with strided columns are folded."""
    from repro.kernels.base import update_tile, update_tiles

    spec = FloydWarshallGep()
    rng = np.random.default_rng(4)

    def tile(dtype=np.float64):
        return rng.choice([0.0, 1.0, 2.5, np.inf, -np.inf], size=(6, 6)).astype(dtype)

    f32 = [("D", tile(np.float32), tile(np.float32), tile(np.float32), None, 6, 6, 0, 24)
           for _ in range(2)]
    flipped = [("D", tile(), tile()[::-1], tile(), None, 6, 12, 0, 24)]
    strided = [("D", np.asfortranarray(tile()), tile(), np.ascontiguousarray(tile().T).T,
                None, 12, 6, 0, 24)]
    calls = f32 + flipped + strided
    copies = [call[1].copy() for call in calls]
    before = [c.tobytes() for c in copies]
    done = native.fold_calls("minplus", calls, copies, ALIAS_X, {24: 24}, (False, False))
    assert [d is None for d in done] == [True, True, True, False]
    assert [c.tobytes() for c in copies[:3]] == before[:3]
    kernel = IterativeKernel(spec)
    with np.errstate(all="ignore"):
        got = update_tiles(kernel, calls)
        want = [update_tile(kernel, call) for call in calls]
    assert got[0].dtype == np.float32
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_batch_releases_every_buffer(compiled):
    """Every operand's ``sys.getrefcount`` is what it was after a batch
    that folds everything, one with a declined call, and one that raises
    (a malformed call after buffers were taken): no ``Py_buffer`` leaks."""
    from repro.kernels.iterative import _active_end

    spec, calls = _task_calls("ge", np.random.default_rng(8))
    n = calls[0][8]
    ops = list({id(op): op for call in calls for op in call[1:5]
                if isinstance(op, np.ndarray)}.values())
    copies = [call[1].copy() for call in calls]
    d = next(call for call in calls if call[0] == "D")

    def counts():
        return [sys.getrefcount(a) for a in [*ops, *copies]]

    def batch(more):
        return native.fold_calls("ge", calls + more, copies + [d[1].copy() for _ in more],
                                 ALIAS_X, {n: _active_end(spec, n)}, (True, True))

    before = counts()
    with np.errstate(all="ignore"):
        assert None not in batch([])
        assert counts() == before
        assert batch([(*d[:2], d[2][::-1], *d[3:])])[-1] is None  # a negative stride
        assert counts() == before
        with pytest.raises(TypeError, match="9-tuple"):
            batch([d + (None,)])
    assert counts() == before


def test_a_covered_task_is_one_native_call(monkeypatch, compiled):
    """A task the C covers makes exactly one native call — no
    ``fold_one``, no per-tile ``gep_tile_update`` — and ``update_tiles``
    still marks its batched phase (``mark(None)``, the process worker's
    stack token) before it, and no call after."""
    from repro.kernels import iterative
    from repro.kernels.base import update_tiles

    spec, calls = _task_calls("fw", np.random.default_rng(3))
    lib = native._library()
    seen = []
    for entry in ("fold_one", "fold_calls"):
        fn = getattr(lib, entry)
        monkeypatch.setattr(lib, entry, lambda *a, _e=entry, _fn=fn: seen.append(_e) or _fn(*a))

    def refuse(*args, **kwargs):
        raise AssertionError("a tile took the per-tile path")

    monkeypatch.setattr(iterative, "gep_tile_update", refuse)
    marks = []
    with np.errstate(all="ignore"):
        outs = update_tiles(IterativeKernel(spec), calls, mark=marks.append)
    assert seen == ["fold_calls"] and marks == [None]
    assert len(outs) == len(calls) and all(out.base is None for out in outs)


# ----------------------------------------------------------------------
# build and fallback, each in a process of its own
# ----------------------------------------------------------------------
def _child(script, cache, cc=None, prefix=()):
    env = dict(os.environ, XDG_CACHE_HOME=str(cache))
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if cc is not None:
        env["CC"] = cc
    return subprocess.Popen(
        [*prefix, sys.executable, "-c", textwrap.dedent(script)],
        env=env, cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )


def _finish(proc, timeout=120):
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if proc.poll() is None:  # timed out: leave no child behind
            proc.kill()
            proc.wait()
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])


#: the solves a missing compiler must not change: small FW (IM) and GE
#: (CB) tables, GE (CB) on 8x8 tiles, whose A tiles and B / C panels
#: take the masked corner fold, and FW on the benchmark's 96x96 tiles —
#: with ``+inf`` edges only (the compiled D fold's plain compare, proved
#: clean), then with one ``-inf`` entry too (its NaN-keeping select and
#: the guarded NumPy step).  Vertex 150 has no in-edges, so its ``+inf``
#: column outlives the solve and meets the ``-inf`` paths.
SOLVES = ("fw", "ge", "ge8", "fw96", "fw96_neg")


def solve_summary() -> dict:
    """Each of :data:`SOLVES`: output bytes and reported fold."""
    from repro.core import run_gep
    from repro.sparkle import SparkleContext
    from repro.workloads import diagonally_dominant, random_digraph_weights

    tropical = random_digraph_weights(192, seed=6)
    tropical[:150, 150] = tropical[151:, 150] = np.inf
    negative = tropical.copy()
    negative[17, 130] = -np.inf
    out = {}
    for name, spec, table, strategy, r in (
        ("fw", FloydWarshallGep(), random_digraph_weights(48, seed=5), "im", 6),
        ("ge", GaussianEliminationGep(), diagonally_dominant(48, seed=5), "cb", 6),
        ("ge8", GaussianEliminationGep(), diagonally_dominant(64, seed=7), "cb", 8),
        ("fw96", FloydWarshallGep(), tropical, "im", 2),
        ("fw96_neg", FloydWarshallGep(), negative, "im", 2),
    ):
        with SparkleContext(2, 1) as sc:
            result, report = run_gep(spec, table, engine="spark", r=r,
                                     strategy=strategy, sc=sc)
        out[name] = result.tobytes().hex()
        out[name + "_fold"] = report.kernel["fold"]
    return out


SOLVE = """
    import json
    from tests.test_native import solve_summary

    print(json.dumps(solve_summary()))
"""


def test_missing_compiler_solves_bit_identically_on_numpy(tmp_path, compiled):
    numpy_run = _finish(_child(SOLVE, tmp_path / "cache", cc=str(tmp_path / "nonexistent")))
    native_run = solve_summary()
    for name in SOLVES:
        assert numpy_run[name + "_fold"].startswith("numpy: no C compiler")
        assert native_run[name + "_fold"] == "native"
        assert numpy_run[name] == native_run[name]
    assert not (tmp_path / "cache").exists()


HEADERLESS = """
    import json, pathlib
    from repro.kernels import native

    native._include_dir = lambda: pathlib.Path(EMPTY)
    from tests.test_native import solve_summary

    print(json.dumps({"status": native.status(), **solve_summary()}))
"""


def test_missing_python_headers_fall_back_with_the_reason(tmp_path, compiled):
    """A cold cache and an include directory without ``Python.h``:
    nothing is built, :func:`~repro.kernels.native.status` names the
    directory, and every solve is byte-identical on NumPy."""
    empty = tmp_path / "include"
    empty.mkdir()
    numpy_run = _finish(_child(HEADERLESS.replace("EMPTY", repr(str(empty))), tmp_path / "cache"))
    native_run = solve_summary()
    assert numpy_run["status"] == f"numpy: no Python.h in {empty}"
    for name in SOLVES:
        assert numpy_run[name + "_fold"] == numpy_run["status"]
        assert numpy_run[name] == native_run[name]
    assert not (tmp_path / "cache").exists()


RACE = """
    import json, threading
    import numpy as np
    from repro.kernels import native

    seen = []
    threads = [threading.Thread(target=lambda: seen.append(native.status()))
               for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    x = np.zeros((4, 4))
    ok = native.fold("minplus", x, np.ones((4, 4)), np.ones((4, 4)))
    print(json.dumps({"seen": seen, "fold": ok}))
"""


def test_two_processes_racing_a_cold_cache_both_load(tmp_path, compiled):
    cache = tmp_path / "cache"
    procs = [_child(RACE, cache) for _ in range(2)]
    results = [_finish(proc) for proc in procs]
    assert results == [{"seen": ["native"] * 4, "fold": True}] * 2
    files = sorted(p.name for p in (cache / "repro").iterdir())
    assert len(files) == 1 and files[0].endswith(".so"), files


def _read_only(directory: Path) -> list[str]:
    """A command prefix under which ``directory`` cannot be written."""
    directory.chmod(0o555)
    if not os.access(directory, os.W_OK):
        return []
    # mode bits do not bind root: bind-mount it read-only in a private
    # mount namespace instead
    prefix = ["unshare", "-rm", "sh", "-c", 'mount -o bind,ro "$0" "$0" && exec "$@"',
              str(directory)]
    if shutil.which("unshare") is None or subprocess.run(
        [*prefix, "true"], capture_output=True
    ).returncode:
        pytest.skip("cannot make a directory read-only here")
    return prefix


def test_read_only_cache_falls_back_with_the_reason(tmp_path, compiled):
    cache = tmp_path / "cache"
    (cache / "repro").mkdir(parents=True)
    prefix = _read_only(cache / "repro")
    try:
        run = _finish(_child(SOLVE, cache, prefix=prefix))
    finally:
        (cache / "repro").chmod(0o755)
    assert run["fw_fold"].startswith("numpy: ")
    assert "Read-only" in run["fw_fold"] or "Permission denied" in run["fw_fold"]
    assert list((cache / "repro").iterdir()) == []


def test_the_source_compiles_warning_free(tmp_path, compiled):
    """The C builds with ``-Wall -Wextra -Werror`` on top of the flags
    the library is built with."""
    cc = shlex.split(os.environ.get("CC") or "cc")
    done = subprocess.run(
        [*cc, *native._FLAGS, "-Wall", "-Wextra", "-Werror", f"-I{native._include_dir()}",
         "-x", "c", "-", "-o", str(tmp_path / "fold.so")],
        input=native._SOURCE, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


# ----------------------------------------------------------------------
# bucket: one shuffle map task's records by reducer
# ----------------------------------------------------------------------
class _Sub(np.ndarray):
    """An ndarray subclass: ``sizeof_block`` sizes it by ``isinstance``,
    so ``bucket`` declines it."""


def _partitioners():
    from repro.sparkle.partitioner import GridPartitioner, HashPartitioner, Partitioner

    class AdHoc(Partitioner):
        """No memo: the default empty ``placed``."""

        def partition(self, key):
            return sum(map(ord, repr(key))) % self.num_partitions

    return {
        "hash": lambda: HashPartitioner(5),
        "grid": lambda: GridPartitioner(5, 4),
        "adhoc": lambda: AdHoc(5),
    }


PARTITIONERS = _partitioners()
_GRID = [(i, j) for i in range(4) for j in range(4)]
#: keys equal to others of another type: (1.0, 2) to (1, 2), True to 1
_ODD = [(1, 2), (1.0, 2), 1, True, "s", (7, -3), (0,), None]


def _record_sets():
    """name -> (records, combine, whether ``bucket`` takes them)."""
    a = np.arange(16.0).reshape(4, 4)
    b = np.ones((2, 3), dtype=np.float32)
    view = np.arange(32.0).reshape(4, 8)[:, ::2]  # non-contiguous
    shared = ("uw", a)
    fan = [(key, shared) for key in _GRID]  # one role tuple, many records
    roles = [(key, (role, t)) for role, t in zip("xuvw", (a, b, view, a)) for key in _GRID]
    return {
        "plain-grid": ([(key, a.copy()) for key in _GRID], False, True),
        "plain-keys": ([(key, view) for key in _ODD], False, True),
        "plain-roles": (fan + [(key, ("x", view)) for key in _GRID], False, True),
        "plain-empty": ([], False, True),
        "plain-subclass": ([(_GRID[0], a), (_GRID[1], a.view(_Sub))], False, False),
        "plain-non-ascii": ([(_GRID[0], a), (_GRID[1], ("ü", a))], False, False),
        "plain-int": ([(_GRID[0], a), (_GRID[1], 5)], False, False),
        "plain-dict": ([(_GRID[0], {"u": a})], False, False),
        "plain-role-of-subclass": ([(_GRID[0], ("u", a.view(_Sub)))], False, False),
        "combine-grid": (roles, True, True),
        "combine-keys": (
            [(key, (role, a)) for key, role in zip(_ODD, "xuvwxuvw")], True, True
        ),
        "combine-empty": ([], True, True),
        "combine-overwrite": (roles + [(_GRID[3], ("u", view))], True, False),
        "combine-array": ([(_GRID[0], a)], True, False),
        "combine-non-array": ([(_GRID[0], ("x", 5))], True, False),
        "combine-non-ascii": ([(_GRID[0], ("ü", a))], True, False),
    }


RECORD_SETS = _record_sets()


def _python_buckets(records, part, combine):
    from repro.sparkle.rdd import ROLE_AGGREGATOR
    from repro.sparkle.scheduler import _bucket_records

    return _bucket_records(records, part, ROLE_AGGREGATOR if combine else None)


def _c_buckets(records, part, combine):
    placed = part.placed
    memo = placed if placed.__class__ is dict else None
    return native.bucket(records, memo, part.partition, part.num_partitions, combine)


def _shape(buckets, combine):
    """A bucket list by object identity: each record (plain), or each
    combiner's key and ``(role, tile)`` pairs in dict order."""
    if not combine:
        return [[id(record) for record in bucket] for bucket in buckets]
    return [
        [(id(key), [(role, id(tile)) for role, tile in roles.items()]) for key, roles in bucket]
        for bucket in buckets
    ]


@pytest.mark.parametrize("records", sorted(RECORD_SETS))
@pytest.mark.parametrize("part", sorted(PARTITIONERS))
def test_bucket_matches_the_python_loop(part, records, compiled):
    """Buckets, record order within each, combiner dict order, value
    bytes and the partitioner's memo afterwards all equal the Python
    loop's; what ``bucket`` cannot size by arithmetic (an ndarray
    subclass, a non-ASCII role, a non-array value, a plain value under
    the role combine) or a role overwritten within one key is declined."""
    recs, combine, taken = RECORD_SETS[records]
    py_part, c_part = PARTITIONERS[part](), PARTITIONERS[part]()
    got = _c_buckets(recs, c_part, combine)
    if not taken:
        assert got is None
        return
    want_buckets, want_sizes = _python_buckets(recs, py_part, combine)
    got_buckets, got_sizes = got
    assert _shape(got_buckets, combine) == _shape(want_buckets, combine)
    assert got_sizes == want_sizes
    assert list(c_part.placed.items()) == list(py_part.placed.items())


@pytest.mark.parametrize("records", sorted(RECORD_SETS))
@pytest.mark.parametrize("part", ["hash", "adhoc"])
def test_map_task_writes_what_the_python_loop_writes(part, records, compiled):
    """Through the scheduler's map task, with the library and with the
    compiler hidden: the same bytes written, ``records_out``, fetched
    records and bytes per reducer and memo (or the same error)."""
    from repro.sparkle import SparkleContext
    from repro.sparkle.rdd import ROLE_AGGREGATOR, CheckpointedRDD
    from repro.sparkle.scheduler import TaskContext

    from .conftest import numpy_only

    recs, combine, _taken = RECORD_SETS[records]

    def map_task():
        try:
            return ran()
        except ValueError as exc:  # a value the role combine cannot unpack
            return repr(exc)

    def ran():
        p = PARTITIONERS[part]()
        with SparkleContext(1, 1) as sc:
            rdd = CheckpointedRDD(sc, [recs], None)
            shuffled = (
                rdd.combineByKey(ROLE_AGGREGATOR, num_partitions=p)
                if combine else rdd.partitionBy(partitioner=p)
            )
            dep, tc = shuffled._shuffle_dep, TaskContext(0, 0, 1)
            written = sc._scheduler._shuffle_map_task(dep, 0, tc)
            fetched = [sc._shuffle_manager.fetch(dep.shuffle_id, b, 1) for b in range(5)]
        buckets = [items for items, _nbytes, _remote in fetched]
        return (
            written, tc.records_out, [nbytes for _i, nbytes, _r in fetched],
            _shape(buckets, combine), list(p.placed.items()),
        )

    got = map_task()
    with numpy_only():
        want = map_task()
    assert got == want
    assert isinstance(got, str) or got[1] == len(recs)


def _refs(records):
    """The refcount of every record, key, value and tile."""
    objs = []
    for record in records:
        key, value = record
        objs += [record, key, value] + ([value[1]] if isinstance(value, tuple) else [])
    return [sys.getrefcount(o) for o in objs]


@pytest.mark.parametrize("combine", [False, True], ids=["plain", "combine"])
@pytest.mark.parametrize("case", ["accepted", "declined", "raising"])
def test_bucket_keeps_every_refcount(case, combine, compiled):
    """After a call that bucketed, declined (late, on an overwritten
    role, or early, on an unsized value) or raised from ``partition``
    midway, once its answer is dropped, no record, key, value or tile
    holds a reference more or fewer."""
    tiles = [np.full((2, 2), float(t)) for t in range(6)]
    records = [
        ((i % 3, i), (role, tiles[i % 6]) if combine or i % 2 else tiles[i % 6])
        for i, role in enumerate("xuvwxuvwxuvw")
    ]
    if case == "declined":
        records.append(((0, 0), ("x", tiles[0]) if combine else [5]))
    calls = []

    def partition(key):
        calls.append(key)
        if case == "raising" and len(calls) == 7:
            raise ValueError("placement failed")
        return key[1] % 4

    before = _refs(records)
    try:
        out = native.bucket(records, None, partition, 4, combine)
    except ValueError:
        out = "raised"
    assert (out is None) == (case == "declined")
    assert (out == "raised") == (case == "raising")
    del out
    calls.clear()
    assert _refs(records) == before


class _Unhashable:
    """A key whose ``__hash__`` raises."""

    def __hash__(self):
        raise TypeError("no hash for this key")


@pytest.mark.parametrize("combine", [False, True], ids=["plain", "combine"])
@pytest.mark.parametrize("part", sorted(PARTITIONERS))
def test_bucket_raises_what_the_python_loop_raises(part, combine, compiled):
    """A key whose ``__hash__`` raises, and a ``partition`` that raises,
    come out of ``bucket`` as the Python loop's exception: same type,
    same message."""
    from repro.sparkle.partitioner import Partitioner

    tile = np.ones((2, 2))
    value = ("x", tile)
    records = [((0, 0), value), (_Unhashable(), value)]
    raised = []
    for run in (_python_buckets, _c_buckets):
        with pytest.raises(TypeError) as err:
            run(records, PARTITIONERS[part](), combine)
        raised.append(str(err.value))
    assert raised == ["no hash for this key"] * 2

    class Failing(Partitioner):
        def partition(self, key):
            raise LookupError(f"no reducer for {key!r}")

    raised = []
    for run in (_python_buckets, _c_buckets):
        with pytest.raises(LookupError) as err:
            run([((3, 4), value)], Failing(2), combine)
        raised.append(str(err.value))
    assert raised == ["no reducer for (3, 4)"] * 2


def test_a_failed_placement_is_retried_as_before(compiled):
    """A ``partition`` that raises a retryable error once fails its map
    task's first attempt; the retry runs and the job's answer and retry
    count equal those of the Python loop."""
    from repro.sparkle import SparkleContext
    from repro.sparkle.errors import TransientIOError
    from repro.sparkle.partitioner import Partitioner
    from repro.sparkle.rdd import ROLE_AGGREGATOR

    from .conftest import numpy_only

    class Flaky(Partitioner):
        def __init__(self, n):
            super().__init__(n)
            self.failed = False

        def partition(self, key):
            if not self.failed:
                self.failed = True
                raise TransientIOError("placement flaked")
            return key[1] % self.num_partitions

    tiles = [np.full((2, 2), float(t)) for t in range(8)]
    records = [((t % 2, t), ("x", tile)) for t, tile in enumerate(tiles)]

    def solve():
        with SparkleContext(2, 1) as sc:
            rdd = sc.parallelize(records, 2)
            out = rdd.combineByKey(ROLE_AGGREGATOR, num_partitions=Flaky(3)).collect()
            return (
                sorted((key, sorted(roles)) for key, roles in out),
                sc.metrics.tasks_retried,
            )

    got = solve()
    with numpy_only():
        want = solve()
    assert got == want
    assert got[1] == 1
