"""Exact lattice geometry of rational polygons.

Count lattice points in dilates exactly, reconstruct the degree-2
count quasipolynomial, certify pseudointegrality, and generate the
polygon families realizing extreme interior/boundary profiles.
"""

__version__ = "0.1.0"

from .counting import count_boundary, count_interior, count_total, dilate_counter
from .ehrhart import (
    PipCertificate,
    QuasiPolynomial,
    check_reciprocity,
    is_pseudointegral,
    reconstruct_quasipolynomial,
)
from .exact import AffineMap, IntMat2, Vec2
from .polygon import RationalPolygon, hull, triangle_invariant
from .vieta import (
    FamilyState,
    VietaSolution,
    enumerate_reduced,
    family,
    is_solution,
    is_vieta_reduced,
    jump_forest,
    verify_general_bound,
    vieta_jump,
    vieta_reduce,
)

__all__ = [
    "AffineMap",
    "FamilyState",
    "IntMat2",
    "PipCertificate",
    "QuasiPolynomial",
    "RationalPolygon",
    "Vec2",
    "VietaSolution",
    "check_reciprocity",
    "count_boundary",
    "count_interior",
    "count_total",
    "dilate_counter",
    "enumerate_reduced",
    "family",
    "hull",
    "is_pseudointegral",
    "is_solution",
    "is_vieta_reduced",
    "jump_forest",
    "reconstruct_quasipolynomial",
    "triangle_invariant",
    "verify_general_bound",
    "vieta_jump",
    "vieta_reduce",
]
