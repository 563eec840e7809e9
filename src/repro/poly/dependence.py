"""Tile-level dataflow analysis and schedule emission (§IV-B step 4).

The final step of the polyhedral methodology applies data-dependence
analysis among the (split) recursive calls and emits a parallel program
with ``doall`` stages inside a ``docross`` outer loop.  At tile
granularity the access functions of inter-tile point ``(kb, ib, jb)``
are::

    write:  (ib, jb)
    reads:  (ib, jb), (ib, kb), (kb, jb), (kb, kb)

Two calls depend on each other (Bernstein's conditions) iff one's write
intersects the other's accesses.  ASAP levels over the resulting graph
give the stage schedule; tests verify it matches the inline-and-optimize
schedule of methodology 1 call for call.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.gep import GepSpec
from .tiling import TileClass, TiledGep

__all__ = [
    "TileAccess",
    "bernstein_dependent",
    "asap_levels",
    "schedule_iteration",
    "poly_schedule",
]


@dataclass(frozen=True)
class TileAccess:
    """Write/read tile sets of one inter-tile iteration point."""

    point: tuple[int, int, int]  # (kb, ib, jb)
    write: tuple[int, int]
    reads: frozenset[tuple[int, int]]

    @staticmethod
    def of(kb: int, ib: int, jb: int) -> "TileAccess":
        return TileAccess(
            (kb, ib, jb),
            (ib, jb),
            frozenset({(ib, jb), (ib, kb), (kb, jb), (kb, kb)}),
        )


def bernstein_dependent(a: TileAccess, b: TileAccess) -> bool:
    """Bernstein's conditions: flow, anti or output dependence."""
    return (
        a.write in b.reads  # RAW
        or b.write in a.reads  # WAR
        or a.write == b.write  # WAW
    )


def _dependence_edges(
    tiles: list[TileClass], accesses: list[TileAccess]
) -> list[tuple[int, int]]:
    """Directed dependence edges (first, second) among one iteration's tiles.

    Direction: the call whose write feeds the other's read goes first;
    ties (mutual reads) keep case order A < B = C < D, and same-rank
    mutual readers (B ‖ C) stay unordered.
    """
    rank = {"A": 0, "B": 1, "C": 1, "D": 2}
    # Candidate pairs via a tile index instead of all-pairs testing:
    # Bernstein's conditions can only hold when one call's write tile
    # appears among the other's accesses, so only pairs sharing a tile
    # through a write need checking.  O(points x reads) instead of
    # O(points^2) — same pairs, same edges.
    writers: dict[tuple[int, int], list[int]] = {}
    for idx, acc in enumerate(accesses):
        writers.setdefault(acc.write, []).append(idx)
    candidates: set[tuple[int, int]] = set()
    for y, acc in enumerate(accesses):
        for t in acc.reads | {acc.write}:
            for x in writers.get(t, ()):
                if x != y:
                    candidates.add((x, y) if x < y else (y, x))
    edges: list[tuple[int, int]] = []
    for x, y in sorted(candidates):
        if not bernstein_dependent(accesses[x], accesses[y]):
            continue
        xw_in_yr = accesses[x].write in accesses[y].reads
        yw_in_xr = accesses[y].write in accesses[x].reads
        if xw_in_yr and not yw_in_xr:
            edges.append((x, y))
        elif yw_in_xr and not xw_in_yr:
            edges.append((y, x))
        else:
            if rank[tiles[x].case] == rank[tiles[y].case]:
                continue  # same rank, mutually reading: parallel (B ‖ C)
            edges.append(
                (x, y) if rank[tiles[x].case] < rank[tiles[y].case] else (y, x)
            )
    return edges


def asap_levels(spec: GepSpec, kb: int, nb: int) -> tuple[list[TileClass], list[int]]:
    """Updated tiles of iteration ``kb`` with their ASAP schedule levels.

    The dependence pairs are materialised once into an edge list, then a
    longest-path relaxation runs over the edges until a fixpoint —
    breaking as soon as a sweep makes no progress instead of always
    burning the worst-case number of sweeps.
    """
    tiled = TiledGep(spec)
    tiles = tiled.updated_tiles(kb, nb)
    accesses = [TileAccess.of(t.kb, t.ib, t.jb) for t in tiles]
    edges = _dependence_edges(tiles, accesses)
    n = len(tiles)
    level = [0] * n
    for _ in range(n + 1):
        changed = False
        for first, second in edges:
            if level[second] < level[first] + 1:
                level[second] = level[first] + 1
                changed = True
        if not changed:
            break
    else:
        raise ValueError("dependence relaxation did not converge")
    return tiles, level


def schedule_iteration(spec: GepSpec, kb: int, nb: int) -> list[list[TileClass]]:
    """Doall stages of one outer (docross) iteration ``kb``.

    Builds the dependence graph among that iteration's updated tiles and
    returns ASAP levels.  For every GEP spec this comes out as the
    A → (B ‖ C) → D pattern; the test suite pins that down rather than
    assuming it.
    """
    tiles, level = asap_levels(spec, kb, nb)
    num = max(level) + 1 if level else 0
    stages: list[list[TileClass]] = [[] for _ in range(num)]
    for idx, lv in enumerate(level):
        stages[lv].append(tiles[idx])
    return stages


def poly_schedule(spec: GepSpec, nb: int) -> list[list[TileClass]]:
    """Full docross-over-kb schedule: concatenated per-iteration stages.

    The outer ``kb`` loop is serial (loop-carried dependence through the
    pivot tile), each iteration contributing its doall stages.
    """
    out: list[list[TileClass]] = []
    for kb in range(nb):
        out.extend(schedule_iteration(spec, kb, nb))
    return out
