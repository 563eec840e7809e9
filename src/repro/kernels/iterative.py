"""Iterative (loop-based) GEP tile kernels.

These are the paper's "iterative kernels": per-``k`` passes over the
tile, vectorized with NumPy — the offline equivalent of its
Numba-jitted/NumPy-offloaded kernels.  A deliberately slow pure-Python
scalar variant (:func:`gep_tile_update_loop`) exists as the reference the
vectorized kernel is validated against.

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

Tiles that need a Σ_G mask, or whose pivot range is partly inactive, go
step by step through ``GepSpec.apply_k``.  Every other tile — all of
FW/TC, and GE's trailing tiles — is one ``GepSpec.apply_steps`` call:

* **Semiring specs** forward to ``Semiring.fold_steps(x, u, v)``.  For
  the idempotent semirings (min-plus, max-plus, boolean) operands that
  cannot share memory with ``x`` (identity, then ``np.may_share_memory``,
  conservatively) are folded as a k-chunked 3-D broadcast, ⊕-reduced
  over ``k`` and merged into ``x`` once per chunk; ``min``/``max``/``or``
  select an operand and never round, so re-associating the steps cannot
  change a value.  Aliased operands keep sequential ``k`` order (each
  step reads what the previous wrote) with one reused buffer.  Other
  semirings keep the sequential ``mul`` + ``add_inplace`` default.
* **The tropical ±inf guard runs once per call**, not once per step: the
  fold runs unguarded, ``np.minimum``/``np.maximum`` keep a NaN once a
  cell has one, so ``isnan(x).any()`` afterwards detects every
  ``inf + (-inf)``; on a hit the tile is restored and redone through the
  guarded sequential default.  Results are identical either way.
* **GE** runs its steps in order through one reused buffer — the same
  multiply, divide and subtract per step.  Floating-point subtraction
  rounds, so GE steps are never re-associated.

Stacks
------
A call is cheap arithmetic behind a fixed cost (~30 µs of validation,
predicates, buffers and ufunc dispatch), and on small tiles the cost is
everything: an 8x8 tile does 512 cell updates per call.  So the unit of
the fast path is a *stack*: ``x`` ``(M, rows, cols)``, ``u`` ``(M, rows,
pivot)``, ``v`` ``(M, pivot, cols)``, ``w`` one pivot tile shared by the
stack or ``(M, pivot, pivot)``, ``gi0`` / ``gj0`` sequences of ``M``
offsets, one ``gk0``.  A 2-D tile is the stack of one — the same code,
indexed from the last axes — and every tile of a stack ends with exactly
the bits it would have alone:

* the semiring fold keeps ``k`` as the *leading* axis of its chunked
  broadcast ``(k, M, rows, cols)``, so the ⊕-reduction runs over ``k`` by
  repeated elementwise ⊕ per cell, in step order, ``±0.0`` ties broken as
  in the step loop, whatever ``M`` is; an operand aliasing ``x`` (a
  panel, below) keeps the sequential step loop, over the whole stack;
* GE stays sequential in ``k``: one multiply, one divide, one subtract
  per step over the whole stack, all elementwise;
* the tropical guard checks the stack for NaN once and restores and
  redoes, alone and guarded, only the tiles that hold one;
* Σ_G mask-freedom is checked per tile and ``k_active`` once per stack
  (one pivot range).  A stack with a masked tile or a partly inactive
  range takes the per-step path as one stack when its tiles share the
  mask at every step (``GepSpec.sigma_mask_shared``: one ``gi0`` for a
  B panel, one ``gj0`` for a C panel, or that axis unconstrained over
  the range) and one pivot tile; otherwise it falls apart into its
  tiles, each taking the general path;
* ``KernelStats`` records one base invocation per tile, as ever.

One caveat is NumPy's, not the arithmetic's: which operand's NaN a
commutative ufunc returns when both are NaN depends on where a cell
falls in its loop (SIMD body or scalar tail), so on a GE stack ``NaN *
NaN`` of opposite signs — an input NaN meeting one the arithmetic
produced — may come out with either sign bit.  A tropical stack never
keeps such a NaN: a tile that holds one is redone alone.

:meth:`IterativeKernel.run_stacks` is where a task's call list becomes
stacks, of tiles with equal geometry, pivot range and the spec's dtype:

* case-D calls (four distinct tiles), ``_FOLD_CHUNK_ELEMS // (cells x
  pivot)`` deep so the whole fold stays one cache-resident chunk — 64
  tiles at 8x8, 8 at 16x16, 2 at 25x25; from 26x26 up a tile already
  fills a call;
* *panels*: case-B calls of one pivot row — the same ``u`` / ``w``
  objects and ``gi0`` — or case-C calls of one pivot column — the same
  ``v`` / ``w`` and ``gj0``.  B and C alias ``x`` and must read what
  earlier steps wrote, so the aliased operand is the stack itself and
  ``k`` stays sequential; the shared pivot is ``np.broadcast_to``, not
  copied.  The steps run one at a time over ``(M, rows, cols)``, so a
  panel is ``_FOLD_CHUNK_ELEMS // cells`` deep: 512 tiles at 8x8, 3 at
  96x96, none from 182x182 up.

Stacking copies the inputs (that copy *is* the caller's private
retry-purity copy) and every result is copied out to own its memory: a
view would pin its whole stack behind one live tile and report the
stack's bytes nowhere.  Case A, single-cell tiles, foreign dtypes,
``pure_loop`` and the odd tile out stay single calls.
"""

from __future__ import annotations

import numpy as np

from ..core.gep import GepSpec
from ..semiring import base as _semiring_base
from .base import ALIAS_X
from .stats import KernelStats

__all__ = ["gep_tile_update", "gep_tile_update_loop", "IterativeKernel"]


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
    # Fast path: when no step of this tile's pivot range needs a Σ_G
    # mask (checked once — mask-freedom is monotone in gk) and every
    # step is active (probed once for a whole stack), the whole pivot
    # range is one ``apply_steps`` call and the spec fuses the steps as
    # far as its arithmetic allows.  This is the hot shape: FW/TC tiles
    # are never masked, and GE tiles strictly below/right of the pivot
    # stop being masked as soon as ``gi0 > gk`` / ``gj0 > gk``.
    if all(
        spec.sigma_mask_free(i0, j0, shape, gk0, gk0 + pivot) for i0, j0 in offsets
    ) and all(spec.k_active(gk0 + kk, n_global) for kk in range(pivot)):
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
        # pivot tile): each goes alone, step by step, exactly as it
        # would unstacked.
        for m, (i0, j0) in enumerate(offsets):
            wm = w if w is None or w.ndim == 2 else w[m]
            gep_tile_update(
                spec, x[m], u[m], v[m], wm, i0, j0, gk0, n_global, stats, case
            )
        return
    # Step by step; a stack here shares its mask at every step (a B or
    # C panel), so the first tile's offsets stand for all of them.
    i0, j0 = offsets[0]
    updates = 0
    for kk in range(pivot):
        gk = gk0 + kk
        if not spec.k_active(gk, n_global):
            continue
        mask = spec.sigma_mask(i0, j0, shape, gk)
        if mask is not None:
            active = int(mask.sum())
            if active == 0:
                continue
            updates += active
        else:
            updates += shape[0] * shape[1]
        w_kk = None if w is None else w[kk, kk]
        spec.apply_k(x, u[..., :, kk], v[..., kk, :], w_kk, mask)
    if stats is not None:
        for _ in offsets:
            stats.record_base(case, shape[0], shape[1], pivot, updates)


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
        """Update the stackable tiles of one task's call list.

        ``calls`` entries are ``(case, tile, u, v, w, gi0, gj0, gk0,
        n_global)``.  Calls that agree on :func:`_stack_key` — case-D
        calls of equal geometry and pivot range, or a panel: case-B calls
        on one pivot row (the same ``u`` / ``w`` objects and ``gi0``),
        case-C calls on one pivot column (the same ``v`` / ``w`` and
        ``gj0``) — in the spec's dtype are stacked as deep as
        ``_FOLD_CHUNK_ELEMS`` allows, and each stack is one :meth:`run`.
        A panel's aliased operand is the stack itself (so ``k`` stays
        sequential) and its shared pivot a broadcast view.  The stack is
        the private copy: the input tiles are never written.  Returns a
        list aligned with ``calls``: the updated tile (owning its memory,
        never a view of the stack) or ``None`` for every call left to the
        caller — case A, single-cell tiles, foreign dtypes, tiles too
        large to stack two of, an odd one out.
        """
        results: list = [None] * len(calls)
        if self.pure_loop:
            return results
        groups: dict[tuple, list[int]] = {}
        for idx, call in enumerate(calls):
            alike = _stack_key(call)
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
                tile.size < 2
                or any(op.ndim != 2 or op.dtype != dtype for op in (tile, *operands))
                or not (w is None or w.ndim == 2 and w.dtype == dtype)
            ):
                continue
            depth = _semiring_base._FOLD_CHUNK_ELEMS // (tile.size * steps)
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
        return results

    def describe(self) -> dict:
        """Kernel metadata recorded into execution traces."""
        return {"kind": self.kind, "pure_loop": self.pure_loop}
