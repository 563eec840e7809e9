"""Ideal-cache simulation: why recursive kernels beat iterative ones.

The paper's central shared-memory claim (§III, §V-C) is that loop-based
GEP kernels lose *temporal* locality once the tile no longer fits in L2,
while the recursive R-DP kernels are cache-oblivious — I/O-efficient at
every level of the hierarchy without tuning.  This module makes that
claim measurable offline: an LRU ideal-cache simulator
(:class:`LRUCache`) processes the *actual memory-access pattern* of the
two kernel families and counts misses.

The access walkers mirror the kernels' loop/recursion structure at
element granularity.  A consistency test
(``tests/test_cache_model.py``) checks that each walker touches exactly
the update count reported by the real kernels' :class:`KernelStats`,
so the traces cannot silently drift from the implementations.

Expected asymptotics (Frigo et al.; Chowdhury & Ramachandran):

* iterative GEP:  Θ(n³ / L) misses once n² exceeds the cache,
* recursive GEP:  Θ(n³ / (L·√M)) misses — the crossover the paper's
  Fig. 6 attributes to the L2 boundary between block sizes 512 and 1024.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..core.blocked import CASE_FLAGS, fig4_stages
from ..core.gep import GepSpec
from ..util import near_equal_splits

__all__ = ["LRUCache", "CacheReport", "iterative_gep_misses", "recursive_gep_misses"]


@dataclass
class CacheReport:
    """Outcome of one simulated kernel execution."""

    accesses: int
    misses: int
    capacity_bytes: int
    line_bytes: int
    updates: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class LRUCache:
    """Fully-associative LRU cache of fixed byte capacity and line size.

    Addresses are ``(array_id, byte_offset)``; ``access_range`` touches a
    contiguous byte run and charges one hit/miss per cache line.
    """

    def __init__(self, capacity_bytes: int, line_bytes: int = 64) -> None:
        if line_bytes <= 0 or capacity_bytes < line_bytes:
            raise ValueError("capacity must hold at least one line")
        self.capacity_lines = capacity_bytes // line_bytes
        self.line_bytes = line_bytes
        self.capacity_bytes = capacity_bytes
        self._lines: OrderedDict[tuple[int, int], None] = OrderedDict()
        self.accesses = 0
        self.misses = 0

    def access_range(self, array_id: int, start: int, nbytes: int) -> None:
        """Touch bytes ``[start, start + nbytes)`` of array ``array_id``."""
        if nbytes <= 0:
            return
        first = start // self.line_bytes
        last = (start + nbytes - 1) // self.line_bytes
        lines = self._lines
        for line in range(first, last + 1):
            key = (array_id, line)
            self.accesses += 1
            if key in lines:
                lines.move_to_end(key)
            else:
                self.misses += 1
                lines[key] = None
                if len(lines) > self.capacity_lines:
                    lines.popitem(last=False)

    def report(self) -> CacheReport:
        return CacheReport(self.accesses, self.misses, self.capacity_bytes, self.line_bytes)


# ----------------------------------------------------------------------
# Access walkers (element granularity, row-major float64 layout)
# ----------------------------------------------------------------------
_ELEM = 8  # float64


class _Table:
    """Address helper for an n x n row-major table in one array."""

    def __init__(self, n: int, array_id: int = 0) -> None:
        self.n = n
        self.array_id = array_id

    def row_bytes(self, i: int, j0: int, j1: int) -> tuple[int, int]:
        return ((i * self.n + j0) * _ELEM, (j1 - j0) * _ELEM)

    def cell(self, i: int, j: int) -> tuple[int, int]:
        return ((i * self.n + j) * _ELEM, _ELEM)


def _touch_tile(cache: LRUCache, t: _Table, i0: int, i1: int, j0: int, j1: int) -> None:
    for i in range(i0, i1):
        start, nbytes = t.row_bytes(i, j0, j1)
        cache.access_range(t.array_id, start, nbytes)


def _part(src: tuple[int, int], b: list[int], t: int) -> tuple[int, int]:
    """Part ``t`` of the splits ``b`` of the range starting at ``src[0]``."""
    return (src[0] + b[t], src[0] + b[t + 1])


def iterative_gep_misses(
    spec: GepSpec,
    n: int,
    capacity_bytes: int,
    line_bytes: int = 64,
) -> CacheReport:
    """Miss count of the per-``k`` iterative kernel on an n x n table.

    Per step ``k`` the kernel streams the Σ_G-active region row by row
    while re-reading column ``k`` (one strided element per row) and row
    ``k`` — exactly the traffic of ``gep_tile_update`` on the full table.
    """
    cache = LRUCache(capacity_bytes, line_bytes)
    t = _Table(n)
    updates = 0
    for k in range(n):
        if not spec.k_active(k, n):
            continue
        i0 = k + 1 if spec.constrains_i else 0
        j0 = k + 1 if spec.constrains_j else 0
        if i0 >= n or j0 >= n:
            continue
        updates += (n - i0) * (n - j0)
        # v-row (c[k, j0:n]) is read once per step and stays hot.
        start, nbytes = t.row_bytes(k, j0, n)
        cache.access_range(t.array_id, start, nbytes)
        cache.access_range(t.array_id, *t.cell(k, k))
        for i in range(i0, n):
            cache.access_range(t.array_id, *t.cell(i, k))  # u-column element
            start, nbytes = t.row_bytes(i, j0, n)
            cache.access_range(t.array_id, start, nbytes)  # x-row update
    report = cache.report()
    report.updates = updates
    return report


def recursive_gep_misses(
    spec: GepSpec,
    n: int,
    capacity_bytes: int,
    r_shared: int = 2,
    base_size: int = 16,
    line_bytes: int = 64,
) -> CacheReport:
    """Miss count of the r-way recursive kernel on an n x n table.

    Walks the divide-&-conquer structure of
    :class:`~repro.kernels.recursive.RecursiveKernel` (same
    :func:`~repro.util.near_equal_splits`, same
    :func:`~repro.core.blocked.rway_stages` schedule) and, at each base
    case, the per-``k`` traffic of the iterative tile kernel restricted
    to the tile — which is what the real kernel executes.
    """
    cache = LRUCache(capacity_bytes, line_bytes)
    t = _Table(n)
    update_count = [0]

    def base(case, xi, xj, ui, uk, vk, vj, wk, gi0, gj0, gk0):
        # (xi, xj): x row/col ranges; u cols = pivot; v rows = pivot.
        for kk in range(wk[1] - wk[0]):
            gk = gk0 + kk
            if not spec.k_active(gk, n):
                continue
            i_lo = max(xi[0], gk + 1) if spec.constrains_i else xi[0]
            j_lo = max(xj[0], gk + 1) if spec.constrains_j else xj[0]
            if i_lo >= xi[1] or j_lo >= xj[1]:
                continue
            update_count[0] += (xi[1] - i_lo) * (xj[1] - j_lo)
            cache.access_range(t.array_id, *t.cell(wk[0] + kk, wk[0] + kk))
            start, nbytes = t.row_bytes(vk[0] + kk, j_lo - xj[0] + vj[0], vj[1])
            cache.access_range(t.array_id, start, nbytes)
            for i in range(i_lo, xi[1]):
                cache.access_range(
                    t.array_id, *t.cell(ui[0] + (i - xi[0]), uk[0] + kk)
                )
                start, nbytes = t.row_bytes(i, j_lo, xj[1])
                cache.access_range(t.array_id, start, nbytes)

    def rec(case, xi, xj, ui, uk, vk, vj, wk, gi0, gj0, gk0):
        row_aliased, col_aliased = CASE_FLAGS[case]
        extent_i, extent_j = xi[1] - xi[0], xj[1] - xj[0]
        pivot = wk[1] - wk[0]
        if max(extent_i, extent_j, pivot) <= base_size:
            base(case, xi, xj, ui, uk, vk, vj, wk, gi0, gj0, gk0)
            return
        bk = near_equal_splits(pivot, r_shared)
        bi = bk if row_aliased else near_equal_splits(extent_i, r_shared)
        bj = bk if col_aliased else near_equal_splits(extent_j, r_shared)
        ni, nj = len(bi) - 1, len(bj) - 1
        # An operand whose axis aliases the pivot lives in x itself.
        ui_src, uk_src = (xi, xj) if col_aliased else (ui, uk)
        vk_src, vj_src = (xi, xj) if row_aliased else (vk, vj)

        for k in range(len(bk) - 1):
            for stage in fig4_stages(spec, case, k, ni, nj):
                for sub_case, i, j in stage:
                    rec(
                        sub_case,
                        _part(xi, bi, i), _part(xj, bj, j),
                        _part(ui_src, bi, i), _part(uk_src, bk, k),
                        _part(vk_src, bk, k), _part(vj_src, bj, j),
                        _part(wk, bk, k),
                        gi0 + bi[i], gj0 + bj[j], gk0 + bk[k],
                    )

    full = (0, n)
    rec("A", full, full, full, full, full, full, full, 0, 0, 0)
    report = cache.report()
    report.updates = update_count[0]
    return report
