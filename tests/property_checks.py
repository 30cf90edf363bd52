"""Randomized consistency checks shared by the test suite.

Each check draws its own cases from a caller-supplied random.Random,
asserts the invariant on every case, and returns the number of cases it
actually exercised so callers can enforce a minimum volume.  The
references the checks compare against live in oracles.py.
"""

from fractions import Fraction
from random import Random

from arrcsm.arrangement import Arrangement, parse
from arrcsm.chow import VerificationReport, verify_arrangement
from arrcsm.lattice import build_lattice
from arrcsm.linalg import QMatrix, integer_det
from arrcsm.logder import Derivation, FreenessReport, _degree_kernel, decide_freeness, minimal_generators
from arrcsm.poly import monomial_mul, monomials_of_degree
from oracles import (
    defining_polynomial,
    dense,
    euler_field,
    fraction_det,
    fraction_rref,
    intersection_property_check,
    is_logarithmic,
    is_logarithmic_for_polynomial,
    lead_one,
    log_derivation_space,
    polys,
    primitive,
    reduction_kernel,
)


def arrangement_text(nvars: int, rows) -> str:
    return f"vars {nvars}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)


def random_arrangement(rng: Random, nvars: int, max_forms: int) -> Arrangement:
    """Nonempty arrangement with small integer coefficients."""
    rows = []
    target = rng.randint(1, max_forms)
    while len(rows) < target:
        row = [rng.randint(-2, 2) for _ in range(nvars)]
        if any(row):
            rows.append(row)
    return parse(arrangement_text(nvars, rows))


def random_rational_arrangement(rng: Random, nvars: int, max_forms: int) -> Arrangement:
    """Nonempty arrangement with small rational coefficients.

    About half the draws leave some coordinates out of every form, which
    makes the arrangement non-essential and, when x0 is left out, puts
    every form's first nonzero coefficient past index 0.
    """
    unused = set()
    if rng.random() < 0.5:
        unused = set(rng.sample(range(nvars), rng.randint(0, nvars - 1)))

    def entry(j: int) -> Fraction:
        if j in unused or rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))

    rows = []
    target = rng.randint(1, max_forms)
    while len(rows) < target:
        row = [entry(j) for j in range(nvars)]
        if any(row):
            rows.append(row)
    return parse(arrangement_text(nvars, rows))


def assert_point_rows_match_reduction(arr: Arrangement) -> None:
    """_degree_kernel equals the residue oracle at every degree 0..|A|."""
    for d in range(arr.size + 1):
        monos = monomials_of_degree(arr.nvars, d)
        expected = [primitive(v) for v in reduction_kernel(arr, d)]
        kernel = [dense(v, arr.nvars * len(monos)) for v in _degree_kernel(arr, d, monos)]
        assert kernel == expected, (arr.forms, d)


def point_rows_match_reduction(rng: Random, cases: int) -> int:
    """The search's integer residue rows and MultiPoly's residues share a kernel in P^1-P^3."""
    done = 0
    for _ in range(cases):
        nvars = rng.choice([2, 3, 4])
        assert_point_rows_match_reduction(random_rational_arrangement(rng, nvars, 6 - nvars // 2))
        done += 1
    return done


def freeness_of(arr: Arrangement) -> FreenessReport:
    """Saito's criterion on a fresh generator search of arr."""
    return decide_freeness(arr, minimal_generators(arr, arr.size + 1))


def verify(arr: Arrangement) -> VerificationReport:
    """Every route on arr, from a fresh lattice and a fresh freeness decision."""
    return verify_arrangement(build_lattice(arr), freeness_of(arr))


def scaled_by_monomial(theta: Derivation, mono: tuple[int, ...]) -> Derivation:
    """theta times the monomial with exponents mono (deg-lex order is multiplicative)."""
    terms = tuple((j, monomial_mul(m, mono), c) for j, m, c in theta.terms)
    return Derivation(theta.nvars, theta.degree + sum(mono), terms)


def derivation_to_vector(theta: Derivation, monos) -> tuple[Fraction, ...]:
    """theta's coefficients in the (variable, monomial) layout of the kernels."""
    return tuple(c.coefficient(m) for c in polys(theta) for m in monos)


def random_derivation(rng: Random, nvars: int, degree: int) -> Derivation:
    """Integer entries in -2..2 in the search's (variable, monomial) order; some blocks empty."""
    monos = monomials_of_degree(nvars, degree)
    entries = [(j, m, rng.randint(-2, 2)) for j in range(nvars) for m in monos]
    return Derivation(nvars, degree, tuple(t for t in entries if t[2]))


def mobius_alternation(rng: Random, cases: int) -> int:
    """Mobius values alternate in sign with codimension, and deleting a
    hyperplane never enlarges the lattice."""
    done = 0
    for _ in range(cases):
        nvars = rng.choice([2, 3])
        arr = random_arrangement(rng, nvars, 4)
        lat = build_lattice(arr)
        for flat in lat.flats:
            sign = (-1) ** flat.codim
            assert sign * flat.mu > 0, (arr.forms, flat)
        if arr.size > 1:
            drop = rng.randrange(arr.size)
            rest = [lead_one(f) for i, f in enumerate(arr.forms) if i != drop]
            smaller = parse(arrangement_text(arr.nvars, rest))
            assert smaller.size == arr.size - 1
            assert build_lattice(smaller).size() <= lat.size()
        done += 1
    return done


def euler_membership(rng: Random, cases: int) -> int:
    """The Euler derivation is logarithmic for every arrangement, and so
    is any monomial multiple of a degree-basis member."""
    done = 0
    for _ in range(cases):
        nvars = rng.choice([2, 3])
        arr = random_arrangement(rng, nvars, 4)
        assert is_logarithmic(euler_field(nvars), arr)
        d = rng.choice([0, 1, 2])
        basis = log_derivation_space(arr, d)
        if basis:
            theta = rng.choice(basis)
            mono = tuple(
                1 if j == rng.randrange(nvars) else 0 for j in range(nvars)
            )
            assert is_logarithmic(scaled_by_monomial(theta, mono), arr)
        done += 1
    return done


def reduction_invariance(rng: Random, cases: int) -> int:
    """Per-form divisibility agrees with divisibility by the product.

    A derivation preserves every ideal (alpha_i) exactly when it
    preserves (Q) for the reduced product Q, so the two predicates must
    coincide on arbitrary derivations, logarithmic or not.
    """
    done = 0
    for _ in range(cases):
        nvars = rng.choice([2, 3])
        arr = random_arrangement(rng, nvars, 3)
        q = defining_polynomial(arr)
        if rng.random() < 0.5:
            basis = log_derivation_space(arr, rng.choice([1, 2]))
            theta = rng.choice(basis) if basis else random_derivation(rng, nvars, 1)
        else:
            theta = random_derivation(rng, nvars, rng.choice([0, 1, 2]))
        assert is_logarithmic(theta, arr) == is_logarithmic_for_polynomial(theta, q)
        done += 1
    return done


def intersection_der(rng: Random, cases: int) -> int:
    """Graded pieces of the derivation module intersect form by form."""
    done = 0
    for _ in range(cases):
        nvars = rng.choice([2, 3])
        arr = random_arrangement(rng, nvars, 3)
        d = rng.choice([0, 1, 2, 3])
        assert intersection_property_check(arr, d)
        done += 1
    return done


def kernel_rank_exactness(rng: Random, cases: int) -> int:
    """rank + nullity = number of columns, and kernel vectors annihilate."""
    done = 0
    for _ in range(cases):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        entries = [
            [Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        m = QMatrix(entries)
        kern = m.kernel_basis()
        assert len(fraction_rref(m.entries)) + len(kern) == ncols
        for v in kern:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m.entries)
        done += 1
    return done


def integer_det_matches_fraction_det(rng: Random, cases: int) -> int:
    """Bareiss's integer determinant equals Gaussian elimination over Fraction.

    Entries are zero half the time, so pivots are often zero and need a
    row swap, and some matrices repeat a row, so they are singular.
    """
    done = 0
    for _ in range(cases):
        n = rng.randint(0, 5)
        rows = [[rng.choice([0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            rows[rng.randrange(n)] = list(rng.choice(rows))
        assert integer_det(rows) == fraction_det(rows), rows
        done += 1
    return done


def derivation_render_matches_polys(rng: Random, cases: int) -> int:
    """Derivation.render() is the rendering of polys(theta), block by block.

    random_derivation gives a negative first entry (every coefficient
    then flips sign) and empty d/dx_j blocks; both must turn up.
    """
    negative = empty = 0
    for _ in range(cases):
        nvars = rng.choice([1, 2, 3])
        theta = random_derivation(rng, nvars, rng.choice([0, 1, 2]))
        coeffs = polys(theta)
        pieces = [f"({c.render()})*d/dx{j}" for j, c in enumerate(coeffs) if not c.is_zero()]
        assert theta.render() == (" + ".join(pieces) if pieces else "0"), theta
        negative += bool(theta.terms) and theta.terms[0][2] < 0
        empty += any(c.is_zero() for c in coeffs)
    assert negative and empty
    return cases
