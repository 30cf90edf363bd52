from fractions import Fraction

import pytest

from arrcsm.arrangement import parse
from arrcsm.logder import (
    chern_class_free,
    decide_freeness,
    degree_dimension,
    derivation_to_vector,
    intersection_property_check,
    is_logarithmic,
    is_logarithmic_for_polynomial,
    log_derivation_space,
    minimal_generators,
    vector_to_derivation,
)
from arrcsm.linalg import poly_det
from arrcsm.poly import MultiPoly, monomials_of_degree
from property_checks import euler_field, freeness_of

BOOLEAN = parse("vars 3\n1 0 0\n0 1 0\n0 0 1\n")
THREE_CONC = parse("vars 3\n0 1 0\n0 0 1\n0 1 1\n")
THREE_GENERIC = parse("vars 3\n1 1 0\n0 1 1\n1 0 1\n")
FOUR_GENERIC = parse("vars 3\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n")
NEAR_PENCIL_4 = parse("vars 3\n0 1 0\n0 0 1\n0 1 1\n1 0 0\n")
BRAID = parse("vars 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n1 -1 0 0\n1 0 -1 0\n0 1 -1 0\n")
SINGLE = parse("vars 3\n0 0 1\n")
EMPTY = parse("vars 3\n")
RANK2 = parse("vars 2\n1 0\n0 1\n1 1\n")


def test_euler_derivation():
    e = euler_field(3)
    assert e.degree == 1
    assert e.coeffs[0] == MultiPoly.linear_form([1, 0, 0])
    q = BOOLEAN.defining_polynomial()
    # Euler applied to a degree-3 homogeneous polynomial gives 3 * it
    assert e.apply_to_poly(q) == q.scale(3)


def test_degree_dimensions_boolean():
    assert degree_dimension(BOOLEAN, 0) == 0
    assert degree_dimension(BOOLEAN, 1) == 3


def test_degree_dimensions_three_concurrent():
    # x0 * d/dx0 is logarithmic here in degree... no: the degree-0 slot is the
    # constant derivation d/dx0, which kills x1, x2 and x1+x2.
    assert degree_dimension(THREE_CONC, 0) == 1
    dims = [degree_dimension(THREE_CONC, d) for d in range(4)]
    assert dims == [1, 4, 10, 19]


def test_basis_members_are_logarithmic():
    for arr in (BOOLEAN, THREE_CONC, FOUR_GENERIC):
        q = arr.defining_polynomial()
        for d in range(3):
            for theta in log_derivation_space(arr, d):
                assert theta.degree == d
                assert is_logarithmic(theta, arr)
                assert is_logarithmic_for_polynomial(theta, q)


def test_vector_round_trip():
    monos = monomials_of_degree(3, 2)
    for theta in log_derivation_space(THREE_CONC, 2):
        vec = derivation_to_vector(theta, monos)
        again = vector_to_derivation(vec, 3, 2, monos)
        assert again == theta


def test_minimal_generators_boolean():
    graded = minimal_generators(BOOLEAN)
    assert graded.generator_degrees == (1, 1, 1)
    assert graded.exit_reason == "complete"
    assert any("degree 1" in line for line in graded.search_log)


def test_minimal_generators_four_generic_overflow():
    graded = minimal_generators(FOUR_GENERIC)
    assert graded.exit_reason in ("overflow", "exhausted")
    assert len(graded.generators) != 3 or sum(graded.generator_degrees) != 4


FREENESS_CASES = [
    (BOOLEAN, True, (1, 1, 1)),
    (THREE_CONC, True, (0, 1, 2)),
    (THREE_GENERIC, True, (1, 1, 1)),
    (FOUR_GENERIC, False, None),
    (NEAR_PENCIL_4, True, (1, 1, 2)),
    (BRAID, True, (0, 1, 2, 3)),
    (SINGLE, True, (0, 0, 1)),
    (RANK2, True, (1, 2)),
]


def test_decide_freeness_frozen():
    for arr, want_free, want_exps in FREENESS_CASES:
        report = decide_freeness(arr, minimal_generators(arr))
        assert report.free is want_free, arr.forms
        if want_free:
            assert report.exponents == want_exps
            assert report.saito_scalar != 0
            assert sum(report.exponents) == arr.size
        else:
            assert report.exponents is None
            assert report.reason
        assert report.search_log


def test_free_reports_include_euler_slot():
    for arr, want_free, want_exps in FREENESS_CASES:
        if not want_free or arr.size == 0:
            continue
        report = decide_freeness(arr, minimal_generators(arr))
        assert 1 in report.exponents


def test_saito_determinant_rank2():
    report = decide_freeness(RANK2, minimal_generators(RANK2))
    assert report.free
    mat = [list(theta.coeffs) for theta in report.generators]
    det = poly_det(mat)
    q = RANK2.defining_polynomial()
    assert det == q.scale(report.saito_scalar)


def test_saito_rejects_degenerate_generators():
    # Replace one generator by a monomial multiple of another: the resulting
    # tuple is still made of logarithmic derivations, but the determinant
    # collapses to zero, so it no longer certifies freeness.
    report = decide_freeness(BOOLEAN, minimal_generators(BOOLEAN))
    _, g1, g2 = report.generators
    fake = g1.scaled_by_monomial((1, 0, 0))
    assert is_logarithmic(fake, BOOLEAN)
    mat = [list(fake.coeffs), list(g1.coeffs), list(g2.coeffs)]
    assert poly_det(mat) == MultiPoly.zero(3)


def test_chern_class_free_frozen():
    assert chern_class_free(freeness_of(THREE_CONC)) == (1, 0, -1)
    assert chern_class_free(freeness_of(BOOLEAN)) == (1, 0, 0)
    assert chern_class_free(freeness_of(SINGLE)) == (1, 2, 1)
    assert chern_class_free(freeness_of(NEAR_PENCIL_4)) == (1, -1, 0)


def test_chern_class_free_errors():
    with pytest.raises(ValueError):
        chern_class_free(freeness_of(FOUR_GENERIC))
    with pytest.raises(RuntimeError):
        chern_class_free(freeness_of(EMPTY))


def test_intersection_property_single():
    for d in range(4):
        assert intersection_property_check(SINGLE, d)


def test_intersection_property_examples():
    for arr in (BOOLEAN, THREE_CONC, FOUR_GENERIC):
        for d in range(3):
            assert intersection_property_check(arr, d)
