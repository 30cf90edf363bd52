"""Exact Chern/CSM class computations for hyperplane-arrangement complements.

The package computes, entirely in rational arithmetic: intersection
lattices and characteristic polynomials, CSM classes of projective
complements, logarithmic derivation modules with freeness detection by
Saito's criterion, and Chern classes of the log-derivation bundle by
several independent routes (exponent products, surface singular-point
corrections, blow-up pushforwards), checking that all routes agree.
"""

__version__ = "0.1.0"

from .arrangement import Arrangement, LinearForm, ParseError, parse, parse_file
from .chow import (
    ProjectionCheck,
    SurfaceClass,
    VerificationReport,
    blowup_chern_snc,
    projection_check,
    pushforward_to_p2,
    tjurina_route,
    verify_arrangement,
    verify_pencil_identity,
    verify_pencil_koszul,
)
from .lattice import (
    BadReductionError,
    Flat,
    IntersectionLattice,
    build_lattice,
    char_poly,
    csm_complement,
    point_count_oracle,
    reduced_char_poly,
)
from .linalg import QMatrix, poly_det
from .logder import (
    Derivation,
    FreenessReport,
    GradedBasis,
    chern_class_free,
    decide_freeness,
    intersection_property_check,
    is_logarithmic,
    log_derivation_space,
    minimal_generators,
)
from .poly import FormalClass, MultiPoly, monomials_of_degree, reduce_mod_linear

__all__ = [
    "Arrangement",
    "BadReductionError",
    "Derivation",
    "Flat",
    "FormalClass",
    "FreenessReport",
    "GradedBasis",
    "IntersectionLattice",
    "LinearForm",
    "MultiPoly",
    "ParseError",
    "ProjectionCheck",
    "QMatrix",
    "SurfaceClass",
    "VerificationReport",
    "blowup_chern_snc",
    "build_lattice",
    "char_poly",
    "chern_class_free",
    "csm_complement",
    "decide_freeness",
    "intersection_property_check",
    "is_logarithmic",
    "log_derivation_space",
    "minimal_generators",
    "monomials_of_degree",
    "parse",
    "parse_file",
    "point_count_oracle",
    "poly_det",
    "projection_check",
    "pushforward_to_p2",
    "reduce_mod_linear",
    "reduced_char_poly",
    "tjurina_route",
    "verify_arrangement",
    "verify_pencil_identity",
    "verify_pencil_koszul",
]
