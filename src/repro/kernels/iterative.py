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

Batches
-------
Every call pays a fixed cost — validation, Σ_G predicates, the call
into C or NumPy's ufunc dispatch — and an 8x8 tile is only 512 cell
updates, so on small tiles that cost is most of the call.  So the unit
of the fast path is a task's whole call list.
:meth:`IterativeKernel.run_stacks` hands it to :func:`.native.fold_calls`:
one C call folds every call into the private copy of its tile
(``[call[1].copy() for call in calls]``, the caller's retry-purity
copy, which the result is), resolving ``ALIAS_X`` / the tile itself to
that copy, cutting each pivot range at the end of the spec's active
steps (``GepSpec.k_active``'s prefix, found once per table size) and
deriving Σ_G's corner from the offsets on the constrained axes — the
same corner and per-tile C fold :func:`gep_tile_update` reaches, so the
same bits.  ``KernelStats`` records one base invocation per tile, in
call order.  Per call that is ~1 µs of copy and buffer reads around the
arithmetic.

What the C declines — another dtype, a layout it refuses, a spec with
no compiled fold, no library (``make tier1-nocc``), a kernel subclass
that overrides :meth:`IterativeKernel.run` — comes back ``None`` and
goes through :func:`.base.update_tile` on its own, tile by tile: one
:func:`gep_tile_update`, ``apply_k`` step by step where no compiled
fold covers the tile.
"""

from __future__ import annotations

import numpy as np

from ..core.gep import GepSpec
from . import native
from .base import ALIAS_X
from .stats import KernelStats

__all__ = ["gep_tile_update", "gep_tile_update_loop", "IterativeKernel"]


def gep_tile_update(
    spec: GepSpec,
    x: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    w: np.ndarray,
    gi0: int,
    gj0: int,
    gk0: int,
    n_global: int,
    stats: KernelStats | None = None,
    case: str = "?",
) -> None:
    """Apply all pivot steps of tile ``w``'s range to tile ``x`` in place.

    ``w`` may be ``None`` when the spec declares ``needs_w = False``
    (semiring folds): the pivot extent is then taken from ``u``, and the
    spec receives ``None`` for ``c[k,k]``.
    """
    if w is None:
        if spec.needs_w:
            raise ValueError(f"spec {spec.name!r} requires the pivot tile W")
        pivot = u.shape[1]
    else:
        pivot = w.shape[0]
        if w.shape != (pivot, pivot):
            raise ValueError(f"pivot tile must be square, got {w.shape}")
    mi, mj = x.shape
    if u.shape != (mi, pivot):
        raise ValueError(f"U tile shape {u.shape} != {(mi, pivot)}")
    if v.shape != (pivot, mj):
        raise ValueError(f"V tile shape {v.shape} != {(pivot, mj)}")
    steps = _active_steps(spec, gk0, pivot, n_global)
    # Fast path: when no step of the pivot range needs a Σ_G mask
    # (checked once — mask-freedom is monotone in gk) and every step is
    # active, the whole pivot range is one ``apply_steps`` call: one
    # compiled fold, or ``apply_k`` step by step.  This is the hot
    # shape: FW/TC tiles are never masked, and GE tiles strictly
    # below/right of the pivot stop being masked as soon as ``gi0 > gk``
    # / ``gj0 > gk``.
    if steps == pivot and spec.sigma_mask_free(gi0, gj0, x.shape, gk0, gk0 + pivot):
        spec.apply_steps(x, u, v, w, pivot)
        if stats is not None:
            stats.record_base(case, mi, mj, pivot, mi * mj * pivot)
        return
    # Masked: active step kk updates Σ_G's corner, rows >= kk + ri and
    # columns >= kk + cj.
    ri = gk0 - gi0 + 1 if spec.constrains_i else -steps
    cj = gk0 - gj0 + 1 if spec.constrains_j else -steps
    if not spec.apply_corner(x, u, v, w, steps, ri, cj):
        for kk in range(steps):
            mask = spec.sigma_mask(gi0, gj0, x.shape, gk0 + kk)
            if mask is None or mask.any():
                w_kk = None if w is None else w[kk, kk]
                spec.apply_k(x, u[:, kk], v[kk, :], w_kk, mask)
    if stats is not None:
        updates = sum(
            max(0, mi - max(0, kk + ri)) * max(0, mj - max(0, kk + cj))
            for kk in range(steps)
        )
        stats.record_base(case, mi, mj, pivot, updates)


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


class IterativeKernel:
    """The paper's iterative tile kernel, bundled with work accounting.

    Parameters
    ----------
    spec:
        The GEP problem this kernel computes.
    """

    kind = "iterative"

    def __init__(self, spec: GepSpec) -> None:
        self.spec = spec

    def run(
        self,
        case: str,
        x: np.ndarray,
        u: np.ndarray,
        v: np.ndarray,
        w: np.ndarray,
        gi0: int,
        gj0: int,
        gk0: int,
        n_global: int,
        stats: KernelStats | None = None,
    ) -> None:
        """Run one tile-kernel invocation (case ∈ {A, B, C, D})."""
        gep_tile_update(self.spec, x, u, v, w, gi0, gj0, gk0, n_global, stats, case)

    def run_stacks(self, calls: list, stats: KernelStats | None = None) -> list:
        """Update the tiles of one task's call list in one C call.

        ``calls`` entries are ``(case, tile, u, v, w, gi0, gj0, gk0,
        n_global)``.  The whole list goes to :func:`.native.fold_calls`,
        folded into private copies of the tiles (and ``stats``, in call
        order).  The input tiles are never written.  Returns a list
        aligned with ``calls``: the updated tile, or ``None`` for every
        call left to the caller's :func:`.base.update_tile` — each one
        the C declined (a foreign dtype, a layout the C refuses, a spec
        with no compiled fold), and all of them without the library or
        for a subclass that overrides :meth:`run`, which sees every tile
        update through it.
        """
        results: list = [None] * len(calls)
        if type(self).run is not IterativeKernel.run:
            return results
        spec = self.spec
        copies = [call[1].copy() for call in calls]
        ends = {n: _active_end(spec, n) for n in {call[8] for call in calls}}
        done = native.fold_calls(
            spec.native_fold, calls, copies, ALIAS_X, ends,
            (spec.constrains_i, spec.constrains_j),
        )
        if done is None:
            return results
        if stats is None and None not in done:
            return copies
        for idx, updates in enumerate(done):
            if updates is None:
                continue
            results[idx] = copies[idx]
            if stats is not None:
                case, tile, u, _v, w = calls[idx][:5]
                pivot = u if w is None else w
                pivot = tile if pivot is ALIAS_X or pivot is tile else pivot
                stats.record_base(case, *tile.shape, pivot.shape[-1], updates)
        return results

    def describe(self) -> dict:
        """Kernel metadata recorded into execution traces; ``fold`` says
        whether the compiled fold or NumPy updates the tiles, and why."""
        return {"kind": self.kind, "fold": native.fold_of(self.spec)}
