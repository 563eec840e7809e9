"""Iterative (loop-based) GEP tile kernels.

These are the paper's "iterative kernels": per-``k`` passes over the
tile, folded by compiled C (:mod:`.native`) where it covers the tile and
by vectorized NumPy elsewhere — the equivalent of its Numba-jitted /
native kernels.  A deliberately slow pure-Python scalar variant
(:func:`gep_tile_update_loop`) exists as the reference the vectorized
kernel is validated against.

Kernel contract
---------------
All four blocked-GEP cases (A/B/C/D, paper Fig. 4 / Fig. 7) reduce to one
generic tile update::

    gep_tile_update(spec, x, u, v, w, gi0, gj0, gk0, n_global)

where ``x`` is the (mi, mj) tile being updated *in place* at global
offset ``(gi0, gj0)``, and for each global pivot step ``gk = gk0 + kk``:

* ``u[:, kk]``  holds ``c[i, gk]``   (U tile: x's rows x pivot columns),
* ``v[kk, :]``  holds ``c[gk, j]``   (V tile: pivot rows x x's columns),
* ``w[kk, kk]`` holds ``c[gk, gk]``  (W: the pivot tile).

The aliasing pattern encodes the case: A passes ``u is v is w is x``,
B passes ``v is x``, C passes ``u is x``, D passes four distinct tiles
(and the recursive kernel passes sub-*views* that may overlap ``x``
without being the same object).  Reads of aliased views stay correct
because Σ_G (or semiring identity no-ops) pins row/column ``kk`` during
step ``kk``, and because every step materializes its combination before
writing ``x``.

Tiles that need a Σ_G mask, or whose pivot range is partly inactive,
take the masked path.  Under the base constraints active step ``kk``
updates a *corner* of the tile — rows ``>= kk + ri``, columns ``>= kk +
cj``, with ``ri = gk0 - gi0 + 1`` (``cj = gk0 - gj0 + 1``) on a
constrained axis and every row (column) on the other — and the active
steps are a prefix of the range, so the whole masked update is one
``GepSpec.apply_corner`` call over the active steps: GE's compiled fold
runs each step over its corner (k-outer, each step's ``u`` column, ``v``
row and pivot copied before it writes), and ``KernelStats`` counts the
corner's cells arithmetically.  What it does not cover — no compiler,
another dtype, a spec with no corner fold — goes step by step through
``GepSpec.apply_k`` under a ``sigma_mask``, the oracle the corner fold
is tested against.  Every other tile — all of FW/TC, and GE's trailing
tiles — is one ``GepSpec.apply_steps`` call, the one place a tile
update picks C or NumPy: the compiled fold where it covers the spec and
the layout (min-plus, max-plus, boolean and GE; float64 / bool, rows
contiguous, non-negative strides, one 2-D tile — :func:`.native.fold`),
one call per tile with final bits, and otherwise ``GepSpec.apply_k``
once per step, unmasked — the fallback and the oracle the compiled fold
is tested against.  Both take each cell's steps in ``k`` order and never
re-associate them; the tropical semirings' ±inf guard (``inf + (-inf)``
is the semiring zero) runs at every step in either.

Batches and stacks
------------------
Every call pays a fixed cost — validation, Σ_G predicates, the call
into C or NumPy's ufunc dispatch — and an 8x8 tile is only 512 cell
updates, so on small tiles that cost is most of the call.  So the unit
of the fast path is a task's whole call list.
:meth:`IterativeKernel.run_stacks` hands it to :func:`.native.fold_calls`
first: one C call folds every call into the private copy of its tile
(``[call[1].copy() for call in calls]``, the caller's retry-purity
copy, which the result is), resolving ``ALIAS_X`` / the tile itself to
that copy, cutting each pivot range at the end of the spec's active
steps (``GepSpec.k_active``'s prefix, found once per table size) and
deriving Σ_G's corner from the offsets on the constrained axes — the
same corner and per-tile C fold :func:`gep_tile_update` reaches, so the
same bits.  ``KernelStats`` records one base invocation per tile, in
call order.  Per call that is ~1 µs of copy and buffer reads around the
arithmetic, where the Python stacking below cost ~5 µs.

What the C declines — another dtype, a layout it refuses, a spec with
no compiled fold, no library (``make tier1-nocc``), a kernel subclass
that overrides :meth:`IterativeKernel.run` — goes to NumPy *stacks*:
``x`` ``(M, rows, cols)``, ``u`` ``(M, rows, pivot)``, ``v`` ``(M,
pivot, cols)``, ``w`` one pivot tile shared by the stack or ``(M, pivot,
pivot)``, ``gi0`` / ``gj0`` sequences of ``M`` offsets, one ``gk0``.  A
2-D tile is the stack of one — the same code, indexed from the last
axes — and every tile of a stack ends with exactly the bits it would
have alone:

* NumPy takes one ``apply_k`` per step over the whole stack, all
  elementwise, with GE's pivot per tile shaped ``(M, 1, 1)`` (the C
  folds 2-D tiles only and declines a stack);
* Σ_G mask-freedom is checked once per stack
  (``GepSpec.sigma_mask_free_stack``: the smallest ``gi0`` and ``gj0``
  decide it) and ``k_active`` once per stack (one pivot range, probed at
  its two ends).  A stack with a masked tile or a partly inactive range
  takes the masked path as one stack — one corner — when its tiles
  share the mask at every step (``GepSpec.sigma_mask_shared``: one
  ``gi0`` for a B panel, one ``gj0`` for a C panel, or that axis
  unconstrained over the range) and one pivot tile; otherwise it falls
  apart into its tiles, each taking the general path;
* ``KernelStats`` records one base invocation per tile, in stack order.

One caveat is NumPy's, not the arithmetic's: which operand's NaN a
commutative ufunc returns when both are NaN depends on where a cell
falls in its loop (SIMD body or scalar tail), so when GE's step loop
runs over a stack, ``NaN * NaN`` of opposite signs — an input NaN
meeting one the arithmetic produced — may come out with either sign
bit.  A tropical stack never meets such a pair: the guard makes every
NaN candidate the semiring zero.

The NumPy stacks group tiles with equal geometry, pivot range and the
spec's dtype:

* case-D calls (four distinct tiles), ``_FOLD_CHUNK_ELEMS // (cells x
  pivot)`` deep — 64 tiles at 8x8, 8 at 16x16, 2 at 25x25; from 26x26
  up a tile already fills a call;
* *panels*: case-B calls of one pivot row — the same ``u`` / ``w``
  objects and ``gi0`` — or case-C calls of one pivot column — the same
  ``v`` / ``w`` and ``gj0``.  B and C alias ``x`` and must read what
  earlier steps wrote, so the aliased operand is the stack itself and
  ``k`` stays sequential; the shared pivot is ``np.broadcast_to``, not
  copied.  The steps run one at a time over ``(M, rows, cols)``, so a
  panel is ``_FOLD_CHUNK_ELEMS // cells`` deep: 512 tiles at 8x8, 3 at
  96x96, none from 182x182 up.

Stacking copies the inputs (that copy *is* the private copy) and every
result is copied out to own its memory: a view would pin its whole stack
behind one live tile and report the stack's bytes nowhere.  Case A,
foreign dtypes, ``pure_loop`` and the odd tile out stay single calls.
"""

from __future__ import annotations

import numpy as np

from ..core.gep import GepSpec
from . import native
from .base import ALIAS_X
from .stats import KernelStats

__all__ = ["gep_tile_update", "gep_tile_update_loop", "IterativeKernel"]

#: how many cell updates one stack holds (:meth:`IterativeKernel.run_stacks`):
#: a case-D stack's tiles times their pivot steps, or a panel's cells —
#: 256 KiB of doubles, 64 tiles of 8x8 with all 8 steps.
_FOLD_CHUNK_ELEMS = 32768


def gep_tile_update(
    spec: GepSpec,
    x: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    gi0,
    gj0,
    gk0: int,
    n_global: int,
    stats: KernelStats | None = None,
    case: str = "?",
) -> None:
    """Apply all pivot steps of tile ``w``'s range to tile ``x`` in place.

    ``w`` may be ``None`` when the spec declares ``needs_w = False``
    (semiring folds): the pivot extent is then taken from ``u``, and the
    spec receives ``None`` for ``c[k,k]``.

    ``x`` may also be a stack ``(M, rows, cols)`` of tiles sharing the
    pivot range, with ``u`` ``(M, rows, pivot)``, ``v`` ``(M, pivot,
    cols)``, ``w`` one pivot tile for all of them or ``(M, pivot,
    pivot)``, and ``gi0`` / ``gj0`` sequences of the ``M`` offsets (see
    the module docstring); a 2-D tile is the stack of one.
    """
    if w is None:
        if spec.needs_w:
            raise ValueError(f"spec {spec.name!r} requires the pivot tile W")
        pivot = u.shape[-1]
    else:
        pivot = w.shape[-1]
        if w.shape not in ((pivot, pivot), x.shape[:-2] + (pivot, pivot)):
            raise ValueError(f"pivot tile must be square, got {w.shape}")
    shape = x.shape[-2:]
    if u.shape != x.shape[:-1] + (pivot,):
        raise ValueError(f"U tile shape {u.shape} != {x.shape[:-1] + (pivot,)}")
    if v.shape != x.shape[:-2] + (pivot, shape[1]):
        raise ValueError(
            f"V tile shape {v.shape} != {x.shape[:-2] + (pivot, shape[1])}"
        )
    stacked = x.ndim == 3
    offsets = list(zip(gi0, gj0, strict=True)) if stacked else [(gi0, gj0)]
    if stacked and len(offsets) != len(x):
        raise ValueError(f"{len(offsets)} offsets for a stack of {len(x)} tiles")
    steps = _active_steps(spec, gk0, pivot, n_global)
    # Fast path: when no step of this stack's pivot range needs a Σ_G
    # mask (checked once — mask-freedom is monotone in gk and in the
    # offsets) and every step is active, the whole pivot range is one
    # ``apply_steps`` call: one compiled fold, or ``apply_k`` step by
    # step.  This is the hot shape: FW/TC tiles are never
    # masked, and GE tiles strictly below/right of the pivot stop being
    # masked as soon as ``gi0 > gk`` / ``gj0 > gk``.
    if steps == pivot and spec.sigma_mask_free_stack(offsets, shape, gk0, gk0 + pivot):
        spec.apply_steps(x, u, v, w, pivot)
        if stats is not None:
            for _ in offsets:
                stats.record_base(
                    case, shape[0], shape[1], pivot, shape[0] * shape[1] * pivot
                )
        return
    if stacked and not (
        (w is None or w.ndim == 2)
        and spec.sigma_mask_shared(offsets, shape, gk0, gk0 + pivot)
    ):
        # The tiles' masks differ at some step (or each has its own
        # pivot tile): each goes alone, exactly as it would unstacked.
        for m, (i0, j0) in enumerate(offsets):
            wm = w if w is None or w.ndim == 2 else w[m]
            gep_tile_update(
                spec, x[m], u[m], v[m], wm, i0, j0, gk0, n_global, stats, case
            )
        return
    # Masked: active step kk updates Σ_G's corner, rows >= kk + ri and
    # columns >= kk + cj.  A stack here shares its mask at every step (a
    # B or C panel), so the first tile's offsets stand for all of them.
    i0, j0 = offsets[0]
    ri = gk0 - i0 + 1 if spec.constrains_i else -steps
    cj = gk0 - j0 + 1 if spec.constrains_j else -steps
    if not spec.apply_corner(x, u, v, w, steps, ri, cj):
        for kk in range(steps):
            mask = spec.sigma_mask(i0, j0, shape, gk0 + kk)
            if mask is None or mask.any():
                w_kk = None if w is None else w[kk, kk]
                spec.apply_k(x, u[..., :, kk], v[..., kk, :], w_kk, mask)
    if stats is not None:
        updates = sum(
            max(0, shape[0] - max(0, kk + ri)) * max(0, shape[1] - max(0, kk + cj))
            for kk in range(steps)
        )
        for _ in offsets:
            stats.record_base(case, shape[0], shape[1], pivot, updates)


def _active_steps(spec: GepSpec, gk0: int, pivot: int, n_global: int) -> int:
    """How many of the steps ``gk0 .. gk0 + pivot - 1`` are active.  The
    active steps are a prefix (``GepSpec.k_active``'s contract), so the
    range's two ends decide the common cases — all of it or none."""
    if pivot == 0 or not spec.k_active(gk0, n_global):
        return 0
    steps = pivot
    while not spec.k_active(gk0 + steps - 1, n_global):
        steps -= 1
    return steps


def _active_end(spec: GepSpec, n_global: int) -> int:
    """The end ``hi`` of the active steps ``[0, hi)`` on an ``n_global``
    table (``GepSpec.k_active``'s prefix contract), found by bisection:
    what the C batch cuts each call's pivot range at."""
    lo, hi = 0, n_global
    while lo < hi:
        mid = (lo + hi) // 2
        if spec.k_active(mid, n_global):
            lo = mid + 1
        else:
            hi = mid
    return lo


def gep_tile_update_loop(
    spec: GepSpec,
    x: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    gi0: int,
    gj0: int,
    gk0: int,
    n_global: int,
) -> None:
    """Scalar triple-loop tile update — the honest reference semantics.

    Iterates exactly like the paper's Fig. 1 restricted to this tile's
    index ranges.  Quadratically slower than :func:`gep_tile_update`;
    used only in tests and micro-ablation benchmarks.
    """
    pivot = u.shape[1] if w is None else w.shape[0]
    mi, mj = x.shape
    for kk in range(pivot):
        gk = gk0 + kk
        if not spec.k_active(gk, n_global):
            continue
        w_kk = None if w is None else w[kk, kk]
        for a in range(mi):
            gi = gi0 + a
            for b in range(mj):
                gj = gj0 + b
                if spec.sigma(gi, gj, gk):
                    x[a, b] = spec.f(x[a, b], u[a, kk], v[kk, b], w_kk)


def _aliases(op, tile) -> bool:
    return op is ALIAS_X or op is tile


def _stack_key(call: tuple) -> tuple | None:
    """What calls must share to be stacked together; ``None`` for a call
    that is never stacked (case A, or an aliasing pattern that is not
    its case's).  Panel operands are keyed by identity — one pivot tile —
    which fixes their shape; ids are stable while ``calls`` holds them."""
    case, tile, u, v, w, gi0, gj0, gk0, n_global = call
    if case == "D":
        return (
            "D", gk0, n_global, tile.shape, u.shape, v.shape,
            tile.dtype, u.dtype, v.dtype,
            None if w is None else (w.shape, w.dtype),
        )
    if _aliases(w, tile):
        return None
    if case == "B" and _aliases(v, tile) and not _aliases(u, tile):
        return ("B", id(u), id(w), gi0, gk0, n_global, tile.shape, tile.dtype)
    if case == "C" and _aliases(u, tile) and not _aliases(v, tile):
        return ("C", id(v), id(w), gj0, gk0, n_global, tile.shape, tile.dtype)
    return None


class IterativeKernel:
    """The paper's iterative tile kernel, bundled with work accounting.

    Parameters
    ----------
    spec:
        The GEP problem this kernel computes.
    pure_loop:
        Use the scalar reference loop instead of the vectorized per-``k``
        form (ablation of the "offload to bare metal" effect).
    """

    kind = "iterative"

    def __init__(self, spec: GepSpec, *, pure_loop: bool = False) -> None:
        self.spec = spec
        self.pure_loop = pure_loop

    def run(
        self,
        case: str,
        x: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        gi0,
        gj0,
        gk0: int,
        n_global: int,
        stats: KernelStats | None = None,
    ) -> None:
        """Run one tile-kernel invocation (case ∈ {A, B, C, D}) — or one
        stack of them, in :func:`gep_tile_update`'s stacked form."""
        if self.pure_loop:
            gep_tile_update_loop(self.spec, x, u, v, w, gi0, gj0, gk0, n_global)
            if stats is not None:
                pivot = u.shape[1] if w is None else w.shape[0]
                stats.record_base(case, x.shape[0], x.shape[1], pivot, 0)
        else:
            gep_tile_update(
                self.spec, x, u, v, w, gi0, gj0, gk0, n_global, stats, case
            )

    def run_stacks(self, calls: list, stats: KernelStats | None = None) -> list:
        """Update the tiles of one task's call list that one C call or a
        NumPy stack can take.

        ``calls`` entries are ``(case, tile, u, v, w, gi0, gj0, gk0,
        n_global)``.  The whole list goes to :func:`.native.fold_calls`
        first, folded into private copies of the tiles in one C call;
        the calls it declines (a foreign dtype, a layout the C refuses, a
        spec with no compiled fold, no library) are stacked in NumPy
        (:meth:`_numpy_stacks`).  A subclass that overrides :meth:`run`
        sees every tile update through it: its calls skip the C batch.
        The input tiles are never written.  Returns a list aligned with
        ``calls``: the updated tile (owning its memory, never a view of a
        stack) or ``None`` for every call left to the caller — with
        ``pure_loop``, or when NumPy has it: case A, foreign dtypes,
        tiles too large to stack two of, an odd one out.
        """
        results: list = [None] * len(calls)
        if self.pure_loop:
            return results
        todo = range(len(calls))
        if type(self).run is IterativeKernel.run:
            todo = self._fold_calls(calls, results, stats)
        if todo:
            self._numpy_stacks(calls, todo, results, stats)
        return results

    def _fold_calls(self, calls: list, results: list, stats: KernelStats | None):
        """The C batch: fold every call it covers into ``results`` (and
        ``stats``, in call order); returns the indices it declined."""
        spec = self.spec
        copies = [call[1].copy() for call in calls]
        ends = {n: _active_end(spec, n) for n in {call[8] for call in calls}}
        done = native.fold_calls(
            spec.native_fold, calls, copies, ALIAS_X, ends,
            (spec.constrains_i, spec.constrains_j),
        )
        if done is None:
            return range(len(calls))
        if stats is None and None not in done:
            results[:] = copies
            return ()
        declined = []
        for idx, updates in enumerate(done):
            if updates is None:
                declined.append(idx)
                continue
            results[idx] = copies[idx]
            if stats is not None:
                case, tile, u, _v, w = calls[idx][:5]
                pivot = u if w is None else w
                pivot = tile if _aliases(pivot, tile) else pivot
                stats.record_base(case, *tile.shape, pivot.shape[-1], updates)
        return declined

    def _numpy_stacks(self, calls: list, todo, results: list, stats: KernelStats | None):
        """Stack the calls at indices ``todo`` that agree on
        :func:`_stack_key` — case-D calls of equal geometry and pivot
        range, or a panel: case-B calls on one pivot row (the same ``u``
        / ``w`` objects and ``gi0``), case-C calls on one pivot column
        (the same ``v`` / ``w`` and ``gj0``) — in the spec's dtype, as
        deep as ``_FOLD_CHUNK_ELEMS`` allows; each stack is one
        :meth:`run`.  A panel's aliased operand is the stack itself (so
        ``k`` stays sequential) and its shared pivot a broadcast view;
        the stack is the private copy."""
        groups: dict[tuple, list[int]] = {}
        for idx in todo:
            alike = _stack_key(calls[idx])
            if alike is not None:
                groups.setdefault(alike, []).append(idx)
        dtype = self.spec.dtype
        for members in groups.values():
            case, tile, u, v, w, _gi0, _gj0, gk0, n_global = calls[members[0]]
            shared = u if case == "B" else v  # a panel's pivot operand
            operands = (u, v) if case == "D" else (shared,)
            # a D fold's chunk holds every pivot step; a panel's steps
            # run one at a time over the stack
            steps = u.shape[-1] if case == "D" else 1
            if (
                any(op.ndim != 2 or op.dtype != dtype for op in (tile, *operands))
                or not (w is None or w.ndim == 2 and w.dtype == dtype)
            ):
                continue
            depth = _FOLD_CHUNK_ELEMS // (tile.size * steps)
            if depth < 2:
                continue
            for at in range(0, len(members), depth):
                part = members[at : at + depth]
                if len(part) < 2:
                    continue
                _cases, tiles, us, vs, ws, gi0s, gj0s, *_ = zip(
                    *(calls[idx] for idx in part)
                )
                x = np.array(tiles)
                if case == "D":
                    one_w = all(other is w for other in ws)  # the pivot fan-out
                    u_s, v_s = np.array(us), np.array(vs)
                    w_s = w if one_w else np.array(ws)
                else:
                    pivots = np.broadcast_to(shared, (len(part),) + shared.shape)
                    u_s, v_s = (pivots, x) if case == "B" else (x, pivots)
                    w_s = w
                self.run(case, x, u_s, v_s, w_s, gi0s, gj0s, gk0, n_global, stats)
                for idx, updated in zip(part, x):
                    results[idx] = updated.copy()

    def describe(self) -> dict:
        """Kernel metadata recorded into execution traces; ``fold`` says
        whether the compiled fold or NumPy updates the tiles, and why."""
        return {
            "kind": self.kind,
            "pure_loop": self.pure_loop,
            "fold": "python loop" if self.pure_loop else native.fold_of(self.spec),
        }
