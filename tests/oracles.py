"""Reference implementations that the tests check arrcsm against.

The package computes with integer vectors; nothing here ships.  These
references reach the same objects by other means:

- MultiPoly, reduce_mod_linear and poly_divmod: sparse polynomials over
  Fraction, with reduction modulo a linear form and division by one
  polynomial.  polys(der) reads a Derivation's coefficient polynomials,
  and defining_polynomial(arr) is Q, the product of the forms.
- is_logarithmic and is_logarithmic_for_polynomial: membership of a
  derivation by theta(alpha) in (alpha) for every form, and by
  theta(Q) in (Q).  poly_det is the polynomial determinant det M(theta)
  that Saito's scalar c in det M(theta) = c * Q is checked against.
- fraction_rref, fraction_kernel and fraction_det: plain Gauss-Jordan
  elimination over Fraction that uses no arrcsm code, the reference for
  linalg's integer core and for integer_det; rref_kernel reads the
  kernel basis off RREF rows for fraction_kernel.  primitive scales their
  leading-1 vectors to the primitive integer vectors the core returns,
  and dense(v, n) lists a sparse {column: entry} vector of the search
  with its n entries, for comparing the two.
  intersect_spans and intersection_property_check rebuild D(A)_d one
  hyperplane at a time on top of them.
- _eliminate, _reduce and _insert: the dense integer core, one Bareiss
  step on dense rows, the reference for linalg's sparse _insert, which
  keeps the same rows with the zeros left out.  rref_rows is the RREF
  of a span through it, the dense rows build_lattice keeps, for
  comparing the core with fraction_rref; rational_rows reads the RREF
  rows off a span's dense primitive integer rows, as Flat.span holds
  them.
- reduction_kernel: D(A)_d from residues modulo each form, with
  MultiPoly's reduce_mod_linear, solved by rref_rows and rref_kernel; and
  evaluation_rows: dense rows that evaluate alpha(theta) at lattice
  points of each hyperplane, reducing nothing modulo a form.  Both are
  oracles for the search's sparse integer residue rows and their kernel;
  log_derivation_space is one degree's kernel alone, without the
  generator search.
- whole_kernel_search: minimal_generators as it was before the search
  took kernel vectors on demand: every degree solves its whole kernel,
  and every multiple and kernel vector goes to the dense integer core
  above, with no mod-p rank and no early stop.  euler_field is theta_E,
  its first generator on the D_0 walk.  trailing_columns is T, the last
  nonzero column of each generator multiple, found by list index.
- cramer_adapted: Arrangement.adapted() by Cramer's rule, one set of r
  determinants per form, for the one adjugate the package takes.
- poly_from_roots: the monic polynomial with given roots, for Terao's
  factorization of the characteristic polynomial.
- reference_point_count: the points of P^n(F_p) off every hyperplane,
  one point at a time, the reference for the bit-grid point-count
  oracle.
- lattice_payload: the lattice result as plain dicts and lists, each
  basis fraction_rref of the flat's forms rendered by str(Fraction), the
  reference for the JSON cli._json writes from the lattice's Flat records.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from typing import Iterable, Iterator, Mapping, Sequence

from arrcsm.arrangement import Arrangement, LinearForm
from arrcsm.linalg import Scalar, _integer_vector, _rational, integer_det
from arrcsm.logder import Derivation, GradedBasis, _degree_kernel, vector_to_derivation
from arrcsm.poly import Monomial, monomial_mul, monomials_of_degree, render_terms


def monomial_key(mono: Monomial) -> tuple[int, Monomial]:
    """Sort key realizing ascending degree-lexicographic order."""
    return (sum(mono), mono)


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


class MultiPoly:
    """Immutable sparse polynomial: {exponent tuple: nonzero Fraction}."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Scalar] | None = None):
        self.nvars = nvars
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coef in terms.items():
                if len(mono) != nvars:
                    raise ValueError(f"monomial {mono} has wrong arity for {nvars} variables")
                c = Fraction(coef)
                if c:
                    clean[mono] = clean.get(mono, Fraction(0)) + c
                    if not clean[mono]:
                        del clean[mono]
        self._terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c: Scalar) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def linear_form(cls, coeffs: Iterable[Scalar]) -> "MultiPoly":
        """Sum of coeffs[i] * x_i."""
        cs = [Fraction(c) for c in coeffs]
        n = len(cs)
        terms = {}
        for i, c in enumerate(cs):
            if c:
                terms[tuple(1 if j == i else 0 for j in range(n))] = c
        return cls(n, terms)

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Terms in descending deg-lex order."""
        for mono in sorted(self._terms, key=monomial_key, reverse=True):
            yield mono, self._terms[mono]

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(m) for m in self._terms)

    def leading_term(self) -> tuple[Monomial, Fraction]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self._terms, key=monomial_key)
        return mono, self._terms[mono]

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return MultiPoly(self.nvars, terms)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if self.nvars != other.nvars:
                raise ValueError("variable count mismatch")
            terms: dict[Monomial, Fraction] = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    m = monomial_mul(m1, m2)
                    terms[m] = terms.get(m, Fraction(0)) + c1 * c2
            return MultiPoly(self.nvars, terms)
        return self.scale(other)

    def __rmul__(self, other: Scalar) -> "MultiPoly":
        return self.scale(other)

    def scale(self, c: Scalar) -> "MultiPoly":
        c = Fraction(c)
        if not c:
            return MultiPoly.zero(self.nvars)
        return MultiPoly(self.nvars, {m: cc * c for m, cc in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    def derivative(self, i: int) -> "MultiPoly":
        """Partial derivative with respect to x_i."""
        terms: dict[Monomial, Fraction] = {}
        for m, c in self._terms.items():
            e = m[i]
            if e:
                dm = m[:i] + (e - 1,) + m[i + 1:]
                terms[dm] = terms.get(dm, Fraction(0)) + c * e
        return MultiPoly(self.nvars, terms)

    def render(self, names: list[str] | None = None) -> str:
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        terms = list(self.terms())
        den = lcm(*(coef.denominator for _, coef in terms))
        return render_terms(((int(coef * den), zip(names, mono)) for mono, coef in terms), den)

    def __repr__(self) -> str:
        return f"MultiPoly({self.render()})"


def reduce_mod_linear(p: MultiPoly, form: MultiPoly) -> MultiPoly:
    """Canonical representative of p modulo a linear polynomial.

    Solves the form for its pivot variable (first one with a nonzero
    coefficient) and substitutes.  The result involves no pivot variable,
    and is zero exactly when the form divides p.
    """
    if p.nvars != form.nvars:
        raise ValueError("variable count mismatch")
    if form.is_zero() or form.degree() != 1:
        raise ValueError("modulus must be a nonzero linear polynomial")
    n = form.nvars
    lam = [form.coefficient(tuple(1 if j == i else 0 for j in range(n))) for i in range(n)]
    c0 = form.coefficient((0,) * n)
    pivot = next(i for i, c in enumerate(lam) if c)
    # x_pivot = -(c0 + sum_{j != pivot} lam_j x_j) / lam_pivot
    repl_terms: dict[Monomial, Fraction] = {}
    if c0:
        repl_terms[(0,) * n] = -c0 / lam[pivot]
    for j, c in enumerate(lam):
        if j != pivot and c:
            repl_terms[tuple(1 if k == j else 0 for k in range(n))] = -c / lam[pivot]
    repl = MultiPoly(n, repl_terms)
    powers: list[MultiPoly] = [MultiPoly.const(n, 1)]
    result = MultiPoly.zero(n)
    for mono, coef in p.terms():
        e = mono[pivot]
        while len(powers) <= e:
            powers.append(powers[-1] * repl)
        rest = mono[:pivot] + (0,) + mono[pivot + 1:]
        result = result + MultiPoly(n, {rest: coef}) * powers[e]
    return result


def poly_divmod(p: MultiPoly, f: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Division with remainder by a single polynomial, deg-lex leading terms."""
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.nvars != f.nvars:
        raise ValueError("variable count mismatch")
    n = p.nvars
    lead_m, lead_c = f.leading_term()
    quotient = MultiPoly.zero(n)
    work = p
    remainder = MultiPoly.zero(n)
    while not work.is_zero():
        m, c = work.leading_term()
        if monomial_divides(lead_m, m):
            t = MultiPoly(n, {monomial_div(m, lead_m): c / lead_c})
            quotient = quotient + t
            work = work - t * f
        else:
            t = MultiPoly(n, {m: c})
            remainder = remainder + t
            work = work - t
    return quotient, remainder


def poly_det(rows) -> MultiPoly:
    """Determinant of a square matrix of polynomials, cofactor expansion."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        raise ValueError("empty matrix")
    nvars = rows[0][0].nvars

    def expand(row_ids: tuple[int, ...], col_ids: tuple[int, ...]) -> MultiPoly:
        if len(row_ids) == 1:
            return rows[row_ids[0]][col_ids[0]]
        total = MultiPoly.zero(nvars)
        rest_rows = row_ids[1:]
        for k, c in enumerate(col_ids):
            entry = rows[row_ids[0]][c]
            if entry.is_zero():
                continue
            minor = expand(rest_rows, col_ids[:k] + col_ids[k + 1:])
            piece = entry * minor
            total = total + (piece if k % 2 == 0 else -piece)
        return total

    return expand(tuple(range(n)), tuple(range(n)))


def polys(der: Derivation) -> tuple[MultiPoly, ...]:
    """theta_j, the coefficient of d/dx_j, for each j: der's integer vector over its first entry."""
    lead = der.terms[0][2] if der.terms else 1
    return tuple(
        MultiPoly(der.nvars, {mono: Fraction(c, lead) for k, mono, c in der.terms if k == j})
        for j in range(der.nvars)
    )


def lead_one(form) -> tuple[Fraction, ...]:
    """The rational form a LinearForm stands for: its coefficients over the first nonzero one."""
    lead = next(filter(None, form.coeffs))
    return tuple(Fraction(c, lead) for c in form.coeffs)


def defining_polynomial(arr: Arrangement) -> MultiPoly:
    """Product of the forms with first nonzero coefficient 1; 1 for the empty arrangement."""
    q = MultiPoly.const(arr.nvars, 1)
    for f in arr.forms:
        q = q * MultiPoly.linear_form(lead_one(f))
    return q


def single(arr: Arrangement, i: int) -> Arrangement:
    """Sub-arrangement holding only the i-th hyperplane."""
    return Arrangement(nvars=arr.nvars, forms=(arr.forms[i],), name=arr.name)


def is_logarithmic(der: Derivation, arr: Arrangement) -> bool:
    """Per-form membership test: theta(alpha) reduces to 0 mod alpha."""
    coeffs = polys(der)
    zero = MultiPoly.zero(der.nvars)
    for form in map(lead_one, arr.forms):
        value = sum((c.scale(lam) for lam, c in zip(form, coeffs)), zero)
        if not reduce_mod_linear(value, MultiPoly.linear_form(form)).is_zero():
            return False
    return True


def is_logarithmic_for_polynomial(der: Derivation, f: MultiPoly) -> bool:
    """Divisibility test theta(f) in (f) for an arbitrary polynomial f."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    value = sum((c * f.derivative(j) for j, c in enumerate(polys(der))), MultiPoly.zero(f.nvars))
    return poly_divmod(value, f)[1].is_zero()


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
    return rref_kernel(fraction_rref(rows), ncols)


def rref_kernel(reduced, ncols: int) -> list[tuple[Fraction, ...]]:
    """Kernel basis of the RREF rows reduced: one vector per free column, leading entry 1."""
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


def dense(v, n: int) -> list[int]:
    """The sparse {column: entry} vector v as a list of n entries."""
    return [v.get(j, 0) for j in range(n)]


def _eliminate(v: Sequence[int], row: Sequence[int], col: int) -> list[int]:
    """row[col] * v - v[col] * row, which is 0 at col, divided by the gcd of its entries.

    Fraction-free elimination in the manner of Bareiss (Math. Comp. 22,
    1968): every entry stays an int, and dividing by the gcd after each
    step keeps the entries from growing over many steps.
    """
    p, c = row[col], v[col]
    w = [p * a - c * b for a, b in zip(v, row)]
    g = gcd(*w)
    return [a // g for a in w] if g > 1 else w


def _reduce(basis: dict[int, list[int]], v: list[int]) -> list[int]:
    """v cleared at every pivot of basis, made primitive.

    Each basis row is positive at its pivot and 0 at every other pivot,
    so one pass in any order clears them all.  The result is v's residue
    against the span scaled to a primitive integer vector with its first
    nonzero entry positive (all zeros when v lies in the span), so two
    vectors reduce to the same list exactly when their residues are
    proportional.
    """
    for pc, row in basis.items():
        if v[pc]:
            v = _eliminate(v, row, pc)
    g = gcd(*v)
    if next((a for a in v if a), 0) < 0:
        g = -g
    return v if g in (0, 1) else [a // g for a in v]


def _insert(basis: dict[int, list[int]], v: list[int]) -> list[int] | None:
    """Join v to the span kept in basis.

    Returns the reduced v (the new basis row), or None when v already
    lies in the span.  Rows of basis are rebound, never mutated.
    """
    v = _reduce(basis, v)
    lead = next((j for j, a in enumerate(v) if a), None)
    if lead is None:
        return None
    for pc, row in basis.items():
        if row[lead]:
            basis[pc] = _eliminate(row, v, lead)
    basis[lead] = v
    return v


def rational_rows(rows) -> tuple[tuple[Fraction, ...], ...]:
    """The RREF rows of a span's rows as _insert keeps them, given in pivot order.

    A row's pivot is its first nonzero entry, which it is divided by.
    """
    return tuple(_rational(row, next(filter(None, row))) for row in rows)


def rref_rows(vectors) -> tuple[tuple[Fraction, ...], ...]:
    """Canonical basis (RREF, zero rows dropped) of the span, by the dense integer core."""
    basis: dict[int, list[int]] = {}
    for v in vectors:
        _insert(basis, _integer_vector(v))
    return rational_rows(basis[pc] for pc in sorted(basis))


def intersect_spans(a, b, dim: int) -> tuple[tuple[Fraction, ...], ...]:
    """Canonical basis of span(a) intersected with span(b) in Q^dim.

    The combinations of a's rows that every normal of span(b) annihilates.
    """
    a_rows = [[Fraction(x) for x in row] for row in a]
    normals = fraction_kernel(b, dim)
    constraint = [[sum(x * y for x, y in zip(av, nv)) for av in a_rows] for nv in normals]
    coeff_vectors = fraction_kernel(constraint, len(a_rows))
    return fraction_rref(
        [sum(c * av[k] for c, av in zip(cv, a_rows)) for k in range(dim)] for cv in coeff_vectors
    )


def intersection_property_check(arr: Arrangement, d: int) -> bool:
    """D(A)_d equals the intersection of the single-hyperplane spaces.

    The left side stacks all constraints at once; the right side solves
    each hyperplane separately and intersects the resulting subspaces by
    Fraction elimination, so the two routes share no linear algebra.
    """
    if arr.size == 0:
        return True
    monos = monomials_of_degree(arr.nvars, d)
    dim = arr.nvars * len(monos)
    current = None
    for i in range(arr.size):
        kernel = [dense(v, dim) for v in _degree_kernel(single(arr, i), d, monos)]
        current = fraction_rref(kernel) if current is None else intersect_spans(current, kernel, dim)
    return fraction_rref(dense(v, dim) for v in _degree_kernel(arr, d, monos)) == current


def reduction_kernel(arr: Arrangement, d: int) -> list[tuple[Fraction, ...]]:
    """D(A)_d from residues modulo each form, without point evaluation.

    Every monomial of degree d is reduced modulo the form by substituting
    its pivot variable (reduce_mod_linear); sum_j a_j theta_j lies in
    (alpha) when the coefficient of each pivot-free monomial in its
    residue vanishes.  Columns are (variable, monomial) as in the search.
    The kernel is read off rref_rows, the dense integer core, which is
    pinned to fraction_rref.
    """
    n1 = arr.nvars
    monos = monomials_of_degree(n1, d)
    cols = [(j, m) for j in range(n1) for m in monos]
    rows = []
    for form in map(lead_one, arr.forms):
        fp = MultiPoly.linear_form(form)
        pivot = next(i for i, c in enumerate(form) if c)
        residues = {m: reduce_mod_linear(MultiPoly(n1, {m: Fraction(1)}), fp) for m in monos}
        for t in (m for m in monos if m[pivot] == 0):
            rows.append([form[j] * residues[m].coefficient(t) for j, m in cols])
    return rref_kernel(rref_rows(rows), len(cols))


def evaluation_rows(arr: Arrangement, d: int, monos: list[Monomial]) -> list[list[int]]:
    """Dense integer rows evaluating alpha(theta) at lattice points of every hyperplane.

    The form scaled to integers a, with pivot p, gives the points
    P = a_p t - (a . t) e_p on alpha = 0 for each monomial t free of x_p,
    coordinate hyperplanes included; the row holds a_j * m(P) at column
    (j, m).  This principal lattice is unisolvent for forms of degree d
    (Chung & Yao, SIAM J. Numer. Anal. 14, 1977), so the rows cut out
    D(A)_d without reducing anything modulo a form.
    """
    rows = []
    for form in arr.forms:
        a = primitive(lead_one(form))
        pivot = next(j for j, c in enumerate(a) if c)
        for t in monos:
            if t[pivot]:
                continue
            point = [a[pivot] * e for e in t]
            point[pivot] = -sum(c * e for c, e in zip(a, t))
            values = [prod(x**e for x, e in zip(point, m)) for m in monos]
            rows.append([c * v for c in a for v in values])
    return rows


def log_derivation_space(arr: Arrangement, d: int) -> list[Derivation]:
    """Deterministic basis of the degree-d logarithmic derivations."""
    if d < 0:
        return []
    monos = monomials_of_degree(arr.nvars, d)
    return [vector_to_derivation(v, arr.nvars, d, monos) for v in _degree_kernel(arr, d, monos)]


def euler_field(nvars: int) -> Derivation:
    """The Euler derivation sum x_j d/dx_j, of degree 1."""
    return Derivation(
        nvars, 1, tuple((j, tuple(int(k == j) for k in range(nvars)), 1) for j in range(nvars))
    )


def trailing_columns(gens: Iterable[Derivation], d: int, monos: list[Monomial]) -> set[int]:
    """The last nonzero column of each degree-d multiple x^beta * g of gens, in the search's layout."""
    return {
        max(j * len(monos) + monos.index(monomial_mul(m, shift)) for j, m, _ in g.terms)
        for g in gens
        for shift in monomials_of_degree(g.nvars, d - g.degree)
    }


def whole_kernel_search(arr: Arrangement, stop: int, d0: bool = False) -> GradedBasis:
    """minimal_generators(arr, d0=d0) through degree stop - 1, from whole kernels and the dense integer core.

    With d0 the Euler field is the first generator, and dims[d] is the
    D_0 kernel's dimension plus its multiples, one per monomial of
    degree d - 1; only the generators after it add multiples to the span.
    """
    n1 = arr.nvars
    gens: list[Derivation] = [euler_field(n1)] if d0 else []
    dims: dict[int, int] = {}
    log: list[str] = []
    exit_reason = "exhausted"
    for d in range(stop):
        monos = monomials_of_degree(n1, d)
        dim = n1 * len(monos)
        kernel = list(_degree_kernel(arr, d, monos, set(range(len(monos))) if d0 else set()))
        dims[d] = len(kernel) + (len(monomials_of_degree(n1, d - 1)) if d0 else 0)
        span: dict[int, list[int]] = {}
        for g in gens[1:] if d0 else gens:
            for shift in monomials_of_degree(n1, d - g.degree):
                row = [0] * dim
                for j, mono, c in g.terms:
                    row[j * len(monos) + monos.index(monomial_mul(mono, shift))] = c
                _insert(span, row)
        fresh = 0
        for v in kernel:
            residue = _insert(span, dense(v, dim))
            if residue is not None:
                vec = {j: a for j, a in enumerate(residue) if a}
                gens.append(vector_to_derivation(vec, n1, d, monos))
                fresh += 1
        log.append(f"degree {d}: dim {dims[d]}, {fresh} new generator(s), total {len(gens)}")
        if len(gens) > n1:
            exit_reason = "overflow"
            log.append(f"stopped at degree {d}: {len(gens)} generators exceed the rank bound {n1}")
            break
        if len(gens) == n1 and sum(g.degree for g in gens) == arr.size:
            exit_reason = "complete"
            log.append(f"stopped at degree {d}: {n1} generators with degree sum {arr.size}")
            break
    else:
        log.append(f"search exhausted degrees 0..{stop - 1}")
    return GradedBasis(dims, tuple(gens), exit_reason, tuple(log))


def cramer_adapted(arr: Arrangement) -> tuple[Arrangement, int]:
    """Arrangement.adapted(), each form's coordinates c by Cramer's rule.

    c_k is the determinant of B, the chosen forms on the pivot columns,
    with row k replaced by the form on those columns.
    """
    chosen, span = arr._independent
    if not chosen:
        return arr, 0
    pivots = sorted(span)
    ints = [[f.coeffs[c] for c in pivots] for f in arr.forms]
    basis = [ints[i] for i in chosen]
    forms = tuple(
        LinearForm.make(integer_det(basis[:k] + [w] + basis[k + 1:]) for k in range(len(basis)))
        for w in ints
    )
    return Arrangement(nvars=len(chosen), forms=forms, name=arr.name), arr.nvars - len(chosen)


def poly_from_roots(roots) -> tuple[int, ...]:
    """Monic integer polynomial with the given roots, ascending coefficients."""
    coeffs = [1]
    for r in roots:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= c * r
        coeffs = nxt
    return tuple(coeffs)


def reference_point_count(arr: Arrangement, p: int) -> int | None:
    """#(P^n(F_p) minus A), point by point; None when p is a prime of bad reduction.

    Bad reduction: p divides a coefficient's denominator, or a form
    vanishes identically mod p.  Each point of P^n(F_p) is taken once, as
    the vector whose first nonzero coordinate is 1.
    """
    forms = []
    for f in map(lead_one, arr.forms):
        if any(c.denominator % p == 0 for c in f):
            return None
        row = [c.numerator * pow(c.denominator, -1, p) % p for c in f]
        if not any(row):
            return None
        forms.append(row)
    n1 = arr.nvars
    count = 0
    for lead in range(n1):
        for tail in product(range(p), repeat=n1 - lead - 1):
            x = (0,) * lead + (1,) + tail
            count += all(sum(c * v for c, v in zip(row, x)) % p for row in forms)
    return count


def lattice_payload(lat) -> dict:
    """The lattice subcommand's result as json.dumps reads it: one dict of plain values per flat."""
    forms = lat.arrangement.forms
    return {
        "num_flats": len(lat.flats),
        "flats": [
            {
                "codim": f.codim,
                "mu": f.mu,
                "hyperplanes": list(f.indices),
                "basis": [
                    [str(c) for c in row] for row in fraction_rref(lead_one(forms[i]) for i in f.indices)
                ],
            }
            for f in lat.flats
        ],
    }
