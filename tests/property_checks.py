"""Randomized consistency checks and oracles shared by the test suite.

Each check draws its own cases from a caller-supplied random.Random,
asserts the invariant on every case, and returns the number of cases it
actually exercised so callers can enforce a minimum volume.
fraction_rref and fraction_kernel are plain Fraction Gauss-Jordan
elimination that uses no arrcsm code, the reference for linalg's
integer core, and fraction_det is the same for integer_det; primitive scales their leading-1 vectors to the primitive
integer vectors that the core returns.
"""

from fractions import Fraction
from math import lcm
from random import Random

from arrcsm.arrangement import Arrangement, parse
from arrcsm.chow import VerificationReport, verify_arrangement
from arrcsm.lattice import build_lattice
from arrcsm.linalg import QMatrix, integer_det
from arrcsm.logder import (
    Derivation,
    FreenessReport,
    _degree_kernel,
    decide_freeness,
    intersection_property_check,
    is_logarithmic,
    is_logarithmic_for_polynomial,
    log_derivation_space,
    minimal_generators,
)
from arrcsm.poly import MultiPoly, monomial_mul, monomials_of_degree, reduce_mod_linear


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


def fraction_rref(vectors) -> tuple[tuple[Fraction, ...], ...]:
    """RREF of the span of vectors, zero rows dropped, by Gauss-Jordan over Fraction."""
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                c = row[col]
                rows[i] = [a - c * b if b else a for a, b in zip(row, rows[rank])]
        rank += 1
    return tuple(tuple(row) for row in rows[:rank])


def fraction_kernel(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    """Kernel basis read off fraction_rref: one vector per free column, leading entry 1."""
    reduced = fraction_rref(rows)
    pivots = [next(j for j, x in enumerate(row) if x) for row in reduced]
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            v[pc] = -row[fc]
        lead = next(x for x in v if x)
        basis.append(tuple(x / lead for x in v))
    return basis


def fraction_det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Fraction, the reference for integer_det."""
    work = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(work)):
        pivot = next((i for i in range(col, len(work)) if work[i][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        for i in range(col + 1, len(work)):
            factor = work[i][col] / work[col][col]
            work[i] = [a - factor * b for a, b in zip(work[i], work[col])]
    return det


def primitive(v) -> list[int]:
    """A Fraction vector with first nonzero entry 1, times the lcm of its denominators.

    That is the primitive integer vector on its ray (gcd 1, first nonzero
    entry positive): for each prime dividing the lcm, the entry with the
    highest power of it in its denominator keeps a scaled numerator prime
    to it.
    """
    assert next(x for x in v if x) == 1, v
    scale = lcm(*(Fraction(x).denominator for x in v))
    return [int(Fraction(x) * scale) for x in v]


def reduction_kernel(arr: Arrangement, d: int) -> list[tuple[Fraction, ...]]:
    """D(A)_d from residues modulo each form, without point evaluation.

    Every monomial of degree d is reduced modulo the form by substituting
    its pivot variable (reduce_mod_linear); sum_j a_j theta_j lies in
    (alpha) when the coefficient of each pivot-free monomial in its
    residue vanishes.  Columns are (variable, monomial) as in the search.
    """
    n1 = arr.nvars
    monos = monomials_of_degree(n1, d)
    cols = [(j, m) for j in range(n1) for m in monos]
    rows = []
    for form in arr.forms:
        fp = form.poly()
        pivot = next(i for i, c in enumerate(form.coeffs) if c)
        residues = {m: reduce_mod_linear(MultiPoly(n1, {m: Fraction(1)}), fp) for m in monos}
        for t in (m for m in monos if m[pivot] == 0):
            rows.append([form.coeffs[j] * residues[m].coefficient(t) for j, m in cols])
    return QMatrix(rows, ncols=len(cols)).kernel_basis()


def assert_point_rows_match_reduction(arr: Arrangement) -> None:
    """_degree_kernel equals the residue oracle at every degree 0..|A|."""
    for d in range(arr.size + 1):
        monos = monomials_of_degree(arr.nvars, d)
        expected = [primitive(v) for v in reduction_kernel(arr, d)]
        assert _degree_kernel(arr, d, monos) == expected, (arr.forms, d)


def point_rows_match_reduction(rng: Random, cases: int) -> int:
    """Point-evaluation rows and residue rows have the same kernel in P^1-P^3."""
    done = 0
    for _ in range(cases):
        nvars = rng.choice([2, 3, 4])
        assert_point_rows_match_reduction(random_rational_arrangement(rng, nvars, 6 - nvars // 2))
        done += 1
    return done


def freeness_of(arr: Arrangement) -> FreenessReport:
    """Saito's criterion on a fresh generator search of arr."""
    return decide_freeness(arr, minimal_generators(arr, range(arr.size + 1)))


def verify(arr: Arrangement) -> VerificationReport:
    """Every route on arr, from a fresh lattice and a fresh freeness decision."""
    return verify_arrangement(build_lattice(arr), freeness_of(arr))


def euler_field(nvars: int) -> Derivation:
    """The Euler derivation sum x_j d/dx_j, of degree 1."""
    return Derivation(
        nvars, 1, tuple((j, tuple(int(k == j) for k in range(nvars)), 1) for j in range(nvars))
    )


def scaled_by_monomial(theta: Derivation, mono: tuple[int, ...]) -> Derivation:
    """theta times the monomial with exponents mono (deg-lex order is multiplicative)."""
    terms = tuple((j, monomial_mul(m, mono), c) for j, m, c in theta.terms)
    return Derivation(theta.nvars, theta.degree + sum(mono), terms)


def derivation_to_vector(theta: Derivation, monos) -> tuple[Fraction, ...]:
    """theta's coefficients in the (variable, monomial) layout of the kernels."""
    return tuple(c.coefficient(m) for c in theta.polys() for m in monos)


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
    """Derivation.render() is the rendering of its polys(), block by block.

    random_derivation gives a negative first entry (every coefficient
    then flips sign) and empty d/dx_j blocks; both must turn up.
    """
    negative = empty = 0
    for _ in range(cases):
        nvars = rng.choice([1, 2, 3])
        theta = random_derivation(rng, nvars, rng.choice([0, 1, 2]))
        polys = theta.polys()
        pieces = [f"({c.render()})*d/dx{j}" for j, c in enumerate(polys) if not c.is_zero()]
        assert theta.render() == (" + ".join(pieces) if pieces else "0"), theta
        negative += bool(theta.terms) and theta.terms[0][2] < 0
        empty += any(c.is_zero() for c in polys)
    assert negative and empty
    return cases
