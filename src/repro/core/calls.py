"""Symbolic representation of blocked-GEP function calls.

The inline-and-optimize methodology (paper §IV-A) and the polyhedral
methodology (§IV-B) both manipulate *function calls on tile regions* —
``B_GE(X_01, X_00, X_00)`` and friends — rather than data.  This module
gives those calls a concrete algebra:

* :class:`Region` — a square block of the abstract DP table, in units of
  the finest grid under consideration;
* :class:`Call` — one kernel invocation ``case(X, U, V, W)`` with its
  write region and read regions (from which *flexibility*, the paper's
  ``W(F) ∉ R(F)``, is derived);
* :func:`expand_call` — the generic r-way body of a call: the Fig. 4
  stages of :func:`~repro.core.blocked.rway_stages` (the ones the
  executable :class:`~repro.kernels.recursive.RecursiveKernel` runs),
  flattened into symbolic sub-calls.  Inlining a 2-way algorithm by one
  level (§IV-A step 1) is ``expand_call(c, 2)``.

The scheduler (:mod:`repro.core.scheduling`) then reorders flat call
lists into minimal parallel stages using the paper's four dependency
rules — reproducing Fig. 3's refinement and Fig. 4's program shape.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocked import CASE_FLAGS, fig4_stages
from .gep import GepSpec

__all__ = ["Region", "Call", "expand_call", "top_call", "render_program"]


@dataclass(frozen=True, order=True)
class Region:
    """A square tile ``[i0, i0+size) x [j0, j0+size)`` of the DP table.

    Coordinates are in units of the finest grid currently materialized,
    so regions from different refinement levels compare correctly.
    """

    i0: int
    j0: int
    size: int

    def sub(self, bi: list[int], bj: list[int], i: int, j: int) -> "Region":
        """Sub-region at grid cell (i, j) of the given boundary lists."""
        size = bi[i + 1] - bi[i]
        if size != bj[j + 1] - bj[j]:
            raise ValueError("symbolic calls require square sub-regions")
        return Region(self.i0 + bi[i], self.j0 + bj[j], size)

    def overlaps(self, other: "Region") -> bool:
        return (
            self.i0 < other.i0 + other.size
            and other.i0 < self.i0 + self.size
            and self.j0 < other.j0 + other.size
            and other.j0 < self.j0 + self.size
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.i0}:{self.i0 + self.size}, {self.j0}:{self.j0 + self.size}]"


@dataclass(frozen=True)
class Call:
    """One symbolic kernel invocation ``case(X; U, V, W)``.

    ``writes`` is X's region; ``reads`` are the distinct argument regions
    (including X itself — the GEP ``f`` always reads ``c[i,j]``).
    """

    case: str
    x: Region
    u: Region
    v: Region
    w: Region

    @property
    def writes(self) -> Region:
        return self.x

    @property
    def reads(self) -> frozenset[Region]:
        return frozenset((self.x, self.u, self.v, self.w))

    @property
    def flexible(self) -> bool:
        """The paper's flexibility: W(F) not among the *other* operands.

        The in-place fold always reads its own output tile, so the
        meaningful test is whether any of U/V/W aliases X.  Kernel D is
        flexible; A, B and C are not.
        """
        return self.x not in (self.u, self.v, self.w)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.case}(X={self.x}, U={self.u}, V={self.v}, W={self.w})"


def top_call(size: int) -> Call:
    """The root invocation ``A(X, X, X, X)`` over the whole table."""
    whole = Region(0, 0, size)
    return Call("A", whole, whole, whole, whole)


def _uniform_splits(size: int, r: int) -> list[int]:
    if size % r:
        raise ValueError(
            f"symbolic expansion needs r | size (got size={size}, r={r}); "
            "pick a power-of-two abstract size"
        )
    step = size // r
    return [t * step for t in range(r + 1)]


def expand_call(spec: GepSpec, call: Call, r: int) -> list[Call]:
    """One level of r-way expansion of ``call`` — §IV-A step 1 (inline).

    Returns the sub-calls in the naive sequential order implied by the
    recursion (sub-iteration by sub-iteration, A then B/C then D); the
    scheduler is responsible for compressing them into parallel stages
    (§IV-A step 2).
    """
    row_aliased, col_aliased = CASE_FLAGS[call.case]
    b = _uniform_splits(call.x.size, r)
    # An operand whose axis aliases the pivot lives in X itself.
    usrc = call.x if col_aliased else call.u
    vsrc = call.x if row_aliased else call.v
    wsrc = call.x if call.case == "A" else call.w
    return [
        Call(
            sub_case,
            call.x.sub(b, b, i, j),
            usrc.sub(b, b, i, k),
            vsrc.sub(b, b, k, j),
            wsrc.sub(b, b, k, k),
        )
        for k in range(r)
        for stage in fig4_stages(spec, call.case, k, r, r)
        for sub_case, i, j in stage
    ]


def render_program(stages: list[list[Call]]) -> str:
    """Human-readable staged program (the Fig. 3 / Fig. 4 view)."""
    lines = []
    for num, stage in enumerate(stages, start=1):
        lines.append(f"stage {num}:")
        for call in stage:
            lines.append(f"    {call}")
    return "\n".join(lines)
