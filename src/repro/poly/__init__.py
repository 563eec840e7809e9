"""Polyhedral-lite derivation of r-way R-DP algorithms (paper §IV-B).

The pipeline mirrors the paper's four transformation steps at the
inter-tile granularity where its scheduling decisions actually happen:

1. **Mono-parametric tiling** (:mod:`repro.poly.tiling`): the GEP loop
   nest over ``(k, i, j)`` is tiled by one symbolic parameter ``b``;
   each Σ_G constraint classifies every inter-tile point FULL / PARTIAL
   / EMPTY, symbolically in ``b``.
2. **Recursion conversion**: each non-empty inter-tile point becomes a
   recursive call on its tile (the intra-tile loop nest is replaced by
   the kernels of :mod:`repro.kernels`).
3. **Index-set splitting** (:mod:`repro.poly.split`): splitting on the
   overlap between output and input tiles yields the A/B/C/D function
   family, ranked by how disjoint (and therefore how parallel) each
   case is.
4. **Dependence analysis** (:mod:`repro.poly.dependence`): Bernstein
   conditions over tile access sets give the doall/docross schedule.

The test suite checks this derivation agrees, stage by stage, with the
inline-and-optimize derivation of :mod:`repro.core.autogen` — the two
methodologies of §IV must (and do) produce the same algorithm.
"""

from .affine import AffB, LinearConstraint, TileStatus, VARS
from .dependence import (
    TileAccess,
    asap_levels,
    bernstein_dependent,
    poly_schedule,
    schedule_iteration,
)
from .split import OVERLAP_SIGNATURES, SplitFunction, index_set_split
from .tiling import TileClass, TiledGep, gep_domain_constraints

__all__ = [
    "AffB",
    "LinearConstraint",
    "TileStatus",
    "VARS",
    "TiledGep",
    "TileClass",
    "gep_domain_constraints",
    "SplitFunction",
    "index_set_split",
    "OVERLAP_SIGNATURES",
    "TileAccess",
    "asap_levels",
    "bernstein_dependent",
    "schedule_iteration",
    "poly_schedule",
]
