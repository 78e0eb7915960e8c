"""Exact graded ring of a degenerating elliptic curve, two ways.

The package computes pairwise products of the canonical basis sections
with closed-form series coefficients (theta), recomputes every exponent
by counting weighted lattice points in triangles (floer), and checks the
two bit for bit.  Alongside sit the supporting toric lattice layer, the
marked-point moduli coordinates, and the finite quiver algebra that both
sides share.
"""

from .plgeom import lambda_defect, phi, psi, t_exponent, t_exponent_qr
from .series import SeriesError, TruncSeries
from .theta import (
    RingElement,
    StructureTable,
    ThetaIndex,
    basis_indices,
    build_table,
    check_associativity,
    hilbert_dimension,
    specialize_ngon,
    theta_product,
)
from .floer import (
    Triangle,
    count_brion,
    count_direct,
    floer_product,
    lift_triangle,
    mirror_verify,
)
from .moduli import coords_b, coords_c, residue_R, solve_s
from .quiver import (
    AlgebraElement,
    PathWord,
    graded_dims,
    multiply,
    node_dual_hilbert,
    normal_form,
)

__all__ = [
    "AlgebraElement",
    "PathWord",
    "RingElement",
    "SeriesError",
    "StructureTable",
    "ThetaIndex",
    "Triangle",
    "TruncSeries",
    "basis_indices",
    "build_table",
    "check_associativity",
    "coords_b",
    "coords_c",
    "count_brion",
    "count_direct",
    "floer_product",
    "graded_dims",
    "hilbert_dimension",
    "lambda_defect",
    "lift_triangle",
    "mirror_verify",
    "multiply",
    "node_dual_hilbert",
    "normal_form",
    "phi",
    "psi",
    "residue_R",
    "solve_s",
    "specialize_ngon",
    "t_exponent",
    "t_exponent_qr",
    "theta_product",
]
