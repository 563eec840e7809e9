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
"""

from __future__ import annotations

import numpy as np

from ..core.gep import GepSpec
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
        if w.shape[0] != w.shape[1]:
            raise ValueError(f"pivot tile must be square, got {w.shape}")
    if u.shape != (x.shape[0], pivot):
        raise ValueError(f"U tile shape {u.shape} != {(x.shape[0], pivot)}")
    if v.shape != (pivot, x.shape[1]):
        raise ValueError(f"V tile shape {v.shape} != {(pivot, x.shape[1])}")
    # Fast path: when no step of this tile's pivot range needs a Σ_G
    # mask (checked once — mask-freedom is monotone in gk) and every
    # step is active, the whole pivot range is one ``apply_steps`` call
    # and the spec fuses the steps as far as its arithmetic allows.
    # This is the hot shape: FW/TC tiles are never masked, and GE tiles
    # strictly below/right of the pivot stop being masked as soon as
    # ``gi0 > gk`` / ``gj0 > gk``.
    if spec.sigma_mask_free(gi0, gj0, x.shape, gk0, gk0 + pivot) and all(
        spec.k_active(gk0 + kk, n_global) for kk in range(pivot)
    ):
        spec.apply_steps(x, u, v, w, pivot)
        if stats is not None:
            stats.record_base(case, x.shape[0], x.shape[1], pivot, x.size * pivot)
        return
    updates = 0
    for kk in range(pivot):
        gk = gk0 + kk
        if not spec.k_active(gk, n_global):
            continue
        mask = spec.sigma_mask(gi0, gj0, x.shape, gk)
        if mask is not None:
            active = int(mask.sum())
            if active == 0:
                continue
            updates += active
        else:
            updates += x.size
        spec.apply_k(x, u[:, kk], v[kk, :], None if w is None else w[kk, kk], mask)
    if stats is not None:
        stats.record_base(case, x.shape[0], x.shape[1], pivot, updates)


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
        gi0: int,
        gj0: int,
        gk0: int,
        n_global: int,
        stats: KernelStats | None = None,
    ) -> None:
        """Run one tile-kernel invocation (case ∈ {A, B, C, D})."""
        if self.pure_loop:
            gep_tile_update_loop(self.spec, x, u, v, w, gi0, gj0, gk0, n_global)
            if stats is not None:
                pivot = u.shape[1] if w is None else w.shape[0]
                stats.record_base(case, x.shape[0], x.shape[1], pivot, 0)
        else:
            gep_tile_update(
                self.spec, x, u, v, w, gi0, gj0, gk0, n_global, stats, case
            )

    def describe(self) -> dict:
        """Kernel metadata recorded into execution traces."""
        return {"kind": self.kind, "pure_loop": self.pure_loop}
