"""Randomized consistency checks shared by the test suite.

Each function draws its own cases from a caller-supplied random.Random,
asserts the invariant on every case, and returns the number of cases it
actually exercised so callers can enforce a minimum volume.
"""

from fractions import Fraction
from random import Random

from arrcsm.arrangement import Arrangement, parse
from arrcsm.lattice import build_lattice
from arrcsm.linalg import QMatrix
from arrcsm.logder import (
    Derivation,
    intersection_property_check,
    is_logarithmic,
    is_logarithmic_for_polynomial,
    log_derivation_space,
)
from arrcsm.poly import MultiPoly, monomials_of_degree


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


def euler_field(nvars: int) -> Derivation:
    """The Euler derivation sum x_j d/dx_j, of degree 1."""
    return Derivation(
        coeffs=tuple(
            MultiPoly.linear_form([int(k == j) for k in range(nvars)]) for j in range(nvars)
        ),
        degree=1,
    )


def random_poly(rng: Random, nvars: int, degree: int) -> MultiPoly:
    terms = {}
    for mono in monomials_of_degree(nvars, degree):
        c = rng.randint(-2, 2)
        if c:
            terms[mono] = Fraction(c)
    return MultiPoly(nvars, terms)


def random_derivation(rng: Random, nvars: int, degree: int) -> Derivation:
    return Derivation(
        coeffs=tuple(random_poly(rng, nvars, degree) for _ in range(nvars)),
        degree=degree,
    )


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
            assert sign * flat.mu > 0, (arr.render(), flat)
        if arr.size > 1:
            drop = rng.randrange(arr.size)
            rest = [f.coeffs for i, f in enumerate(arr.forms) if i != drop]
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
            assert is_logarithmic(theta.scaled_by_monomial(mono), arr)
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
        q = arr.defining_polynomial()
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
        assert m.rank() + len(kern) == ncols
        for v in kern:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m.entries)
        done += 1
    return done
