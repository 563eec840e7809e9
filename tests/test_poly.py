"""Methodology 2: polyhedral-lite tiling, splitting, dependence analysis."""

import pytest

from repro.core.autogen import rway_algorithm
from repro.core.blocked import updated_tiles
from repro.core.gep import FloydWarshallGep, GaussianEliminationGep, TransitiveClosureGep
from repro.poly import (
    AffB,
    LinearConstraint,
    TileStatus,
    TiledGep,
    asap_levels,
    bernstein_dependent,
    cross_iteration_edges,
    TileAccess,
    gep_domain_constraints,
    index_set_split,
    iteration_read_versions,
    poly_schedule,
    schedule_iteration,
)

FW = FloydWarshallGep()
GE = GaussianEliminationGep()
TC = TransitiveClosureGep()


class TestAffB:
    def test_arithmetic(self):
        a = AffB(2, -1) + AffB(1, 3)
        assert (a.alpha, a.beta) == (3, 2)
        b = AffB(2, -1) - 1
        assert (b.alpha, b.beta) == (2, -2)
        assert AffB(1, 0).scale(-2) == AffB(-2, 0)

    def test_always_nonneg(self):
        assert AffB(1, -1).always_nonneg()  # b - 1 >= 0 for b >= 1
        assert not AffB(1, -2).always_nonneg()  # fails at b = 1
        assert not AffB(-1, 100).always_nonneg()  # fails for large b

    def test_always_negative(self):
        assert AffB(0, -1).always_negative()
        assert AffB(-1, 0).always_negative()
        assert not AffB(0, 0).always_negative()
        assert not AffB(1, -100).always_negative()


class TestTileClassification:
    def test_i_gt_k_statuses(self):
        c = LinearConstraint.greater("i", "k")
        # tile fully above the pivot block: FULL
        assert c.tile_status({"i": 2, "k": 0, "j": 0}) is TileStatus.FULL
        # same block: PARTIAL (diagonal boundary)
        assert c.tile_status({"i": 1, "k": 1, "j": 0}) is TileStatus.PARTIAL
        # below: EMPTY
        assert c.tile_status({"i": 0, "k": 1, "j": 0}) is TileStatus.EMPTY

    def test_holds_pointwise(self):
        c = LinearConstraint.greater("i", "k")
        assert c.holds({"i": 3, "k": 2, "j": 0})
        assert not c.holds({"i": 2, "k": 2, "j": 0})

    def test_unconstrained_spec_has_no_constraints(self):
        assert gep_domain_constraints(FW) == []
        assert len(gep_domain_constraints(GE)) == 2

    def test_case_classification(self):
        tiled = TiledGep(FW)
        assert tiled.classify(1, 1, 1).case == "A"
        assert tiled.classify(1, 1, 2).case == "B"
        assert tiled.classify(1, 0, 1).case == "C"
        assert tiled.classify(1, 0, 2).case == "D"

    def test_ge_dead_tiles_are_empty(self):
        tiled = TiledGep(GE)
        # tile strictly above the pivot row block is never updated
        assert tiled.classify(2, 0, 3).empty
        assert tiled.classify(2, 3, 0).empty
        assert not tiled.classify(2, 3, 3).empty

    def test_partial_tiles_need_masks(self):
        tiled = TiledGep(GE)
        assert tiled.intra_tile_is_partial(tiled.classify(1, 1, 2))  # B: i boundary
        assert not tiled.intra_tile_is_partial(tiled.classify(1, 2, 3))  # D: interior


@pytest.mark.parametrize("spec", [FW, GE, TC], ids=["fw", "ge", "tc"])
@pytest.mark.parametrize("nb", [2, 3, 5])
def test_updated_tiles_match_blocked_module(spec, nb):
    """The polyhedral enumeration equals the executable grid ranges."""
    tiled = TiledGep(spec)
    for kb in range(nb):
        poly = {(t.case, (t.ib, t.jb)) for t in tiled.updated_tiles(kb, nb)}
        grid = updated_tiles(spec, kb, nb)
        expect = {
            (case, tile) for case, tiles in grid.items() for tile in tiles
        }
        assert poly == expect


class TestIndexSetSplit:
    def test_ge_produces_four_functions(self):
        fns = index_set_split(GE)
        assert [f.name for f in fns] == ["A", "B", "C", "D"]

    def test_parallelism_ranking(self):
        fns = {f.name: f for f in index_set_split(GE)}
        assert fns["D"].parallelism_rank == 3
        assert fns["B"].parallelism_rank == fns["C"].parallelism_rank == 2
        assert fns["A"].parallelism_rank == 0

    def test_disjoint_operands(self):
        fns = {f.name: f for f in index_set_split(GE)}
        assert fns["B"].reads_disjoint == ("U", "W")
        assert fns["C"].reads_disjoint == ("V", "W")
        assert fns["D"].reads_disjoint == ("U", "V", "W")

    def test_ge_boundary_masks(self):
        fns = {f.name: f for f in index_set_split(GE)}
        # A, B, C straddle the Σ_G boundary; D tiles are interior.
        assert fns["A"].needs_sigma_mask
        assert fns["B"].needs_sigma_mask
        assert fns["C"].needs_sigma_mask
        assert not fns["D"].needs_sigma_mask

    def test_fw_no_masks_needed(self):
        fns = index_set_split(FW)
        assert [f.name for f in fns] == ["A", "B", "C", "D"]
        assert not any(f.needs_sigma_mask for f in fns)

    @pytest.mark.parametrize("nb", [2, 3, 4, 6])
    def test_split_stable_across_grid_sizes(self, nb):
        assert index_set_split(GE, nb=nb) == index_set_split(GE, nb=4)


class TestDependence:
    def test_bernstein_pairs(self):
        a = TileAccess.of(0, 0, 0)  # writes (0,0)
        b = TileAccess.of(0, 0, 1)  # reads (0,0)
        d = TileAccess.of(0, 1, 1)  # reads (1,0),(0,1),(0,0)
        assert bernstein_dependent(a, b)
        assert bernstein_dependent(a, d)

    def test_b_and_c_parallel(self):
        b = TileAccess.of(0, 0, 1)
        c = TileAccess.of(0, 1, 0)
        assert not bernstein_dependent(b, c)

    def test_iteration_schedule_is_abc_d(self):
        stages = schedule_iteration(GE, 0, 3)
        assert [sorted({t.case for t in s}) for s in stages] == [
            ["A"],
            ["B", "C"],
            ["D"],
        ]

    def test_last_ge_iteration_single_stage(self):
        stages = schedule_iteration(GE, 2, 3)
        assert len(stages) == 1
        assert stages[0][0].case == "A"


@pytest.mark.parametrize("spec", [FW, GE], ids=["fw", "ge"])
@pytest.mark.parametrize("nb", [2, 3, 4])
def test_poly_schedule_equals_methodology_one(spec, nb):
    """§IV's two derivations must produce the same staged algorithm."""
    alg = rway_algorithm(spec, nb)
    a = [
        {(c.case, (c.x.i0, c.x.j0)) for c in stage_calls}
        for stage_calls in alg.stages()
    ]
    p = [
        {(t.case, (t.ib, t.jb)) for t in stage_tiles}
        for stage_tiles in poly_schedule(spec, nb)
    ]
    assert a == p


# ----------------------------------------------------------------------
# derived legality: ASAP levels and the cross-iteration relation
# ----------------------------------------------------------------------
class TestDerivedDependences:
    @pytest.mark.parametrize("spec", [FW, GE, TC], ids=["fw", "ge", "tc"])
    @pytest.mark.parametrize("nb", [1, 2, 4])
    def test_asap_levels_pin_the_wavefront(self, spec, nb):
        """Computed levels are exactly rank(A)=0, rank(B)=rank(C)=1,
        rank(D)=2 — the A -> (B || C) -> D wavefront, derived not
        asserted."""
        expected_rank = {"A": 0, "B": 1, "C": 1, "D": 2}
        for kb in range(nb):
            tiles, level = asap_levels(spec, kb, nb)
            assert len(tiles) == len(level)
            for tile, lv in zip(tiles, level):
                assert lv == expected_rank[tile.case], (kb, tile)
            # consistency with the staged view
            stages = schedule_iteration(spec, kb, nb)
            assert [t.case for st_ in stages for t in st_] == sorted(
                (t.case for t in tiles), key=expected_rank.get
            )

    def test_read_versions_fw_k0(self):
        """Version split for FW kb=0, nb=2: A reads its own tile pre;
        B/C read the pivot post-update; D reads its row/col/pivot
        operands post-update."""
        va = {v.point: v for v in iteration_read_versions(FW, 0, 2)}
        a = va[(0, 0, 0)]
        assert a.case == "A" and a.post_reads == frozenset()
        b = va[(0, 0, 1)]
        assert b.case == "B"
        assert b.pre_reads == frozenset({(0, 1)})
        assert b.post_reads == frozenset({(0, 0)})
        d = va[(0, 1, 1)]
        assert d.case == "D"
        assert d.pre_reads == frozenset({(1, 1)})
        assert d.post_reads == frozenset({(1, 0), (0, 1), (0, 0)})

    def test_cross_iteration_edges_fw(self):
        """Iteration 1's pivot work depends only on iteration 0's writes
        to the tiles it reads — not on all of iteration 0."""
        edges = cross_iteration_edges(FW, 0, 3)
        # next pivot A(1,1,1) needs k=0's D on (1,1) only
        assert edges[(1, 1, 1)] == frozenset({(0, 1, 1)})
        # B(1,1,2): reads (1,2) and pivot (1,1); both written at k=0
        assert edges[(1, 1, 2)] == frozenset({(0, 1, 2), (0, 1, 1)})
        # D(1,0,0): reads (0,0),(0,1),(1,0),(1,1) - all written at k=0
        assert edges[(1, 0, 0)] == frozenset(
            {(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1)}
        )

    def test_cross_iteration_edges_shrink_for_ge(self):
        """GE's trailing submatrix shrinks: points outside iteration
        kb+1's active region simply do not appear."""
        edges = cross_iteration_edges(GE, 0, 3)
        assert (1, 0, 0) not in edges  # row 0 is retired after k=0
        assert (1, 1, 1) in edges
