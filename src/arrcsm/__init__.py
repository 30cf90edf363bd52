"""Exact Chern/CSM class computations for hyperplane-arrangement complements.

The package computes, entirely in rational arithmetic: intersection
lattices and characteristic polynomials, CSM classes of projective
complements, logarithmic derivation modules with freeness detection by
Saito's criterion, and Chern classes of the log-derivation bundle by
several independent routes (exponent products, surface singular-point
corrections, blow-up pushforwards), checking that all routes agree.

The package holds only what those routes run.  A derivation is an
integer vector, not a polynomial; the polynomial references that the
test suite checks it against (membership theta(alpha) in (alpha), the
determinant det M(theta) = c * Q) live in the repository's
tests/oracles.py and are not installed.
"""

__version__ = "0.1.0"

from .arrangement import Arrangement, LinearForm, ParseError, parse, parse_file
from .chow import (
    ProjectionCheck,
    Route,
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
from .linalg import QMatrix
from .logder import (
    Derivation,
    FreenessReport,
    GradedBasis,
    InternalError,
    chern_class_free,
    decide_freeness,
    minimal_generators,
)
from .poly import FormalClass, monomials_of_degree

__all__ = [
    "Arrangement",
    "BadReductionError",
    "Derivation",
    "Flat",
    "FormalClass",
    "FreenessReport",
    "GradedBasis",
    "InternalError",
    "IntersectionLattice",
    "LinearForm",
    "ParseError",
    "ProjectionCheck",
    "QMatrix",
    "Route",
    "SurfaceClass",
    "VerificationReport",
    "blowup_chern_snc",
    "build_lattice",
    "char_poly",
    "chern_class_free",
    "csm_complement",
    "decide_freeness",
    "minimal_generators",
    "monomials_of_degree",
    "parse",
    "parse_file",
    "point_count_oracle",
    "projection_check",
    "pushforward_to_p2",
    "reduced_char_poly",
    "tjurina_route",
    "verify_arrangement",
    "verify_pencil_identity",
    "verify_pencil_koszul",
]
