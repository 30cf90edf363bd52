"""Logarithmic derivations of an arrangement, freeness, Chern classes.

A polynomial vector field theta = sum theta_j d/dx_j is logarithmic for
the arrangement when theta(alpha) lies in the ideal (alpha) for every
defining form alpha.  The degree of a derivation is the common total
degree of its coefficient polynomials, so the Euler field sum x_j d/dx_j
has degree 1 and constant fields have degree 0.

Freeness is decided by Saito's criterion: hunt for n+1 minimal
generators degree by degree, D(A)_d being the exact kernel of sparse
integer rows, the coefficients of alpha(theta) reduced modulo each form
alpha (_degree_kernel; a coordinate hyperplane x_j adds no rows: it only
asks theta_j to lie in x_j * S_(d-1), so the columns it zeroes leave the
system, and so do the trailing columns of the multiples of the
generators already found, whose kernel vectors the search would only
reject), then read the scalar c in det M(theta) = c * Q off one integer
point where the defining polynomial Q does not vanish: free if and only
if c != 0 (a scalar determinant, no polynomial products or division).
The full walk is degrees 0..|A|: a free module's exponents are
nonnegative and sum to |A|.  By Terao's factorization (Orlik & Terao,
Thm 4.137) the exponents of a free A are the roots of chi(A, t), so a
walk that solves only those degrees (minimal_generators' roots) finds
the same generators, and Saito's criterion certifies or rejects
whatever it finds.  The search runs on the arrangement it is given;
verify searches Arrangement.adapted(), where the first rank A
independent forms are coordinate hyperplanes, and adds a zero exponent
per dimension of the lineality space.  There the first form is x_0, so
D(A) = S*theta_E (+) D_0(A) with D_0(A) = {theta in D(A) : theta_0 = 0}
(Orlik & Terao, Prop. 4.27): minimal_generators with d0 puts the Euler
field theta_E first among the generators and solves each kernel in
D_0(A) alone, counting the C(d+n-1, n) multiples of theta_E at degree d
without solving for them, through degree |A| - 1.  Either walk's result
describes D(A).

A Derivation keeps the search's integer vector; multiples, rendering (by
poly's integer writer) and Saito's integer determinant read it, and the
one Fraction made here is Saito's scalar, in decide_freeness.
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Set
from fractions import Fraction
from itertools import groupby
from math import comb, prod
from operator import itemgetter
from sys import maxsize
from typing import NamedTuple

from .arrangement import Arrangement
from .linalg import IncrementalSpan, ModularKernel, integer_det
from .poly import FormalClass, Monomial, monomial_mul, monomials_of_degree, render_terms


class InternalError(RuntimeError):
    """One of arrcsm's own consistency checks failed: a bug in arrcsm, not in the input."""


class Derivation(NamedTuple("Derivation", [
    ("nvars", int), ("degree", int), ("terms", tuple[tuple[int, Monomial, int], ...]),
])):
    """Homogeneous vector field of one degree, as the search finds it.

    terms are the (variable j, monomial, c) triples of the nonzero entries
    of an integer vector in the search's (variable, monomial) layout, in
    that order: j ascending, monomials descending deg-lex.  The field is
    that vector divided by its first entry.
    """

    __slots__ = ()

    def render(self) -> str:
        lead = self.terms[0][2] if self.terms else 1
        sign = 1 if lead > 0 else -1  # c / lead is sign * c over the positive sign * lead
        names = [f"x{i}" for i in range(self.nvars)]
        pieces = [
            f"({render_terms(((sign * c, zip(names, m)) for _, m, c in group), sign * lead)})*d/dx{j}"
            for j, group in groupby(self.terms, key=itemgetter(0))
        ]
        return " + ".join(pieces) if pieces else "0"


def vector_to_derivation(vec, nvars: int, degree: int, monos: list[Monomial]) -> Derivation:
    """The derivation of a sparse {(variable, monomial) column: int} vector, keys ascending."""
    per = len(monos)
    terms = tuple((k // per, monos[k % per], c) for k, c in vec.items())
    return Derivation(nvars, degree, terms)


def _degree_kernel(arr: Arrangement, d: int, monos: list[Monomial], excluded: Set[int] = frozenset()) -> ModularKernel:
    """The kernel D(A)_d, its primitive vectors sparse in the (variable, monomial) layout.

    A form scaled to integers a, with pivot p its first nonzero index, gets
    the coefficients of a_p^d * alpha(theta) reduced modulo alpha as rows:
    on alpha = 0, a_p x_p is L = -sum_(k != p) a_k x_k, so column (j, m)
    puts a_j * a_p^(d - m_p) * c_beta into the row of the monomial
    m - m_p e_p + beta, for each term c_beta x^beta of L^(m_p).  There is
    one row per monomial of degree d free of x_p, empty ones included.  A
    form with two terms, such as x_i - x_j, has a one-term L, so each
    column puts one entry into its rows.  Monomials are coded as ints in
    base d + 1, where a product of monomials is the sum of their codes.

    A coordinate hyperplane x_j adds no rows.  Its rows would be the
    coefficients of theta_j at the monomials free of x_j: unit vectors of
    the columns (j, m) with x_j not dividing m, pivots that no other
    kernel vector touches.  The kernel is solved on the other columns, in
    the layout's own numbering j * per + k: the same RREF basis.

    The columns in excluded are fixed at 0 and leave the system too
    (_degree_system).  With theta_0's columns among them the kernel is
    D_0(A)_d = {theta in D(A)_d : theta_0 = 0}.  The others are T, the
    trailing (last nonzero) columns of the degree-d multiples of
    generators in D(A) (in D_0(A) when theta_0's columns go too).  The
    kernel then has |T| dimensions fewer, and iterating it yields the
    RREF vectors of the other free columns, unchanged.  Over Q, with R
    the rows:
    - T holds only free columns.  A nonzero kernel vector is a
      combination of the RREF vectors v_f, each 1 at its free column f
      and nonzero elsewhere only at pivots before f, so its last nonzero
      column is the last f it takes, a free column.
    - Dropping T keeps every other vector.  Deleting free columns keeps
      the pivots of R: the RREF of R with those columns deleted is R's
      RREF with them deleted.  So v_f for each free f outside T is
      unchanged, and the kernel of the rest has dimension
      dim D(A)_d - |T|.
    - The dropped vectors are dependent.  The multiple with trailing
      column t is c_t v_t + sum of c_f v_f over free f < t, c_t != 0, so
      v_t lies in the span of the multiples and the v_f with f < t.
    """
    n1, per = arr.nvars, len(monos)
    forms = arr.integer_forms
    coordinate = {min(a) for a in forms if len(a) == 1}
    slots = [  # per x_j, k of each kept column j * per + k
        [k for k, mono in enumerate(monos) if (j not in coordinate or mono[j]) and j * per + k not in excluded]
        for j in range(n1)
    ]
    weight = [(d + 1) ** (n1 - 1 - k) for k in range(n1)]
    codes = [sum(e * w for e, w in zip(mono, weight)) for mono in monos]
    rows: list[dict[int, int]] = []
    for a in forms:
        if len(a) == 1:
            continue
        pivot = min(a)
        line = [(weight[k], -c) for k, c in a.items() if k != pivot]
        powers = [{0: 1}]  # L^e as {code: coefficient}; no term cancels
        for _ in range(d):
            power: dict[int, int] = {}
            for u, c in powers[-1].items():
                for w, b in line:
                    power[u + w] = power.get(u + w, 0) + c * b
            powers.append(power)
        row_of = {}
        for mono, code in zip(monos, codes):
            if not mono[pivot]:
                row_of[code] = len(rows)
                rows.append({})
        scales = [a[pivot] ** (d - e) for e in range(d + 1)]
        for j, c in a.items():
            for k in slots[j]:
                e, i = monos[k][pivot], j * per + k
                base, scale = codes[k] - e * weight[pivot], c * scales[e]
                for u, b in powers[e].items():
                    rows[row_of[base + u]][i] = scale * b
    return ModularKernel(rows, [j * per + k for j in range(n1) for k in slots[j]])


def _degree_system(
    arr: Arrangement, d: int, gens: Iterable[Derivation], d0: bool = False
) -> tuple[list[Monomial], list[dict[int, int]], int, ModularKernel]:
    """Degree d's monomials, the multiples of gens, |T| and the kernel without T's columns.

    The multiples are the sparse layout vectors of x^beta * g, for each g
    in gens and each monomial x^beta of degree d - deg g, keys ascending.
    T is their trailing (largest) columns: for gens in D(A) (in D_0(A)
    with d0) they are free columns of D(A)_d's rows.  The kernel leaves
    out T, and with d0 theta_0's columns range(per) as well
    (_degree_kernel's excluded).
    """
    monos = monomials_of_degree(arr.nvars, d)
    per = len(monos)
    column = {mono: k for k, mono in enumerate(monos)}
    multiples = [
        {j * per + column[monomial_mul(mono, shift)]: c for j, mono, c in g.terms}
        for g in gens
        for shift in monomials_of_degree(arr.nvars, d - g.degree)
    ]
    excluded = {max(v) for v in multiples}
    known = len(excluded)
    if d0:
        excluded.update(range(per))
    return monos, multiples, known, _degree_kernel(arr, d, monos, excluded)


def free_dimension(exponents: Iterable[int], n: int, d: int) -> int:
    """dim of (sum_i S(-e_i))_d over the exponents e_i, S the polynomial ring in n + 1 variables."""
    return sum(comb(d - e + n, n) for e in exponents if e <= d)


def degree_dimension(arr: Arrangement, d: int, generators: Iterable[Derivation] = ()) -> int:
    """dim D(A)_d, from two bounds when they meet, else from the exact kernel.

    generators lie in D(A): the trailing columns T of their degree-d
    multiples leave the system (_degree_system), and dim D(A)_d is |T|
    plus the kernel of the rest.  With N columns and residue rows R left,
    that kernel's dimension N - rank_Q(R) lies between N - (the nonempty
    rows of R) and N - rank_p(R), since rank_p(R) <= rank_Q(R).  When
    rank_p(R) is the number of nonempty rows the two are equal and no
    kernel vector is lifted.
    """
    _, _, known, kernel = _degree_system(arr, d, generators)
    if kernel.upper == len(kernel.columns) - sum(1 for row in kernel.rows if row):
        return known + kernel.upper
    return known + len(list(kernel))


class GradedBasis(NamedTuple("GradedBasis", [
    ("dimensions", dict[int, int]), ("generators", tuple[Derivation, ...]), ("exit_reason", str),
    ("search_log", tuple[str, ...]),
])):
    """Degree-by-degree picture of D(A) at the degrees the search walked."""

    __slots__ = ()

    @property
    def generator_degrees(self) -> tuple[int, ...]:
        return tuple(g.degree for g in self.generators)


def minimal_generators(arr: Arrangement, *, roots: Container[int] = range(maxsize), d0: bool = False) -> GradedBasis:
    """Minimal homogeneous generators of D(A), searched in degrees 0..|A| (0..|A| - 1 with d0).

    That is the full walk: a free module's exponents are nonnegative and
    sum to |A|.  Every degree solves its kernel by default; with roots, a
    degree not among them solves none and finds no generator: dims[d] is
    free_dimension over the generators so far, and its log line and both
    exits run as at any degree.  That is dim D(A)_d when the generators
    are a basis of D(A) with no exponent d.  A free A's exponents are
    among chi's roots (Terao's factorization), and by induction on the
    degree the full walk appends nothing at a degree that is not one,
    and at one that is the same vectors, from the same span of
    multiples.  So the walk on chi's roots is the full walk when Saito's
    criterion certifies its generators (Prop. 4.12; exponents are
    unique), and stands on a free verdict alone (cli._search).  A walk
    that misses a degree holding a generator counts that generator's
    multiples as new generators later, or ends exhausted.

    At each degree the span of monomial multiples of earlier generators
    is built first; new generators are an echelon-canonical complement
    basis inside the degree-d kernel.  The multiples' trailing columns T
    are free columns of the residue rows, and leave the kernel
    (_degree_kernel): it hands out the RREF vectors of the other free
    columns, and the ones it drops, v_t for t in T, lie in the span of
    the multiples and the v_f with f < t, so the span, which takes the
    vectors in ascending free-column order, would reject each.  The
    vectors it takes, and so the residues, generators and log, are those
    of the whole kernel.  dims[d] is |T| + the kernel's upper =
    N - rank_p(R), for its N columns and residue rows R, certified by the
    exact span alone: it takes the multiples, then kernel vectors while
    its rank is below |T| + upper, and its rank reaching that closes the
    degree.  That holds because rank_p <= rank_Q for an integer matrix (a
    minor nonzero mod p is nonzero over Z), so |T| + upper bounds
    dim D(A)_d from above, and the span's exact rank, of vectors in
    D(A)_d, bounds it from below.  Multiples that fill D(A)_d reach it
    with no lift, and with no generator yet T is empty and there is no
    multiple to add.  Where the span stops short, a lift failed and upper
    is the integer core's exact dimension of the smaller system.  A
    vector is lifted for the mod-p free columns in ascending order; its
    check proves its column is not a pivot over Q, and with every earlier
    free column checked the Q-pivots before it are the mod-p pivots.  So
    each vector the span takes is the RREF vector over Q, and the
    residues, generators and log do not depend on how many are lifted.
    Early exits: more than n+1 generators (never free), or exactly n+1
    with degree sum |A| (Saito candidate found).

    With d0, A's first form must be x_0, or ValueError: theta_E comes
    first among the generators and the kernels are those of D_0(A) =
    {theta in D(A) : theta_0 = 0}, and D(A) = S*theta_E (+) D_0(A) when
    x_0 is in A (Orlik & Terao, Prop. 4.27).  Only the generators after
    theta_E add multiples to the span and T, and dims[d] also counts
    theta_E's multiples, one per monomial of degree d - 1, which have
    theta_0 != 0 and so lie outside the kernel.  theta_E takes one
    exponent 1, so the others sum to |A| - 1, the last degree walked.
    The dimensions, generator degrees and exits are then those of the
    full walk through that degree; the generators after theta_E are
    D_0(A)'s.
    """
    n1 = arr.nvars
    if d0 and arr.integer_forms[:1] != [{0: 1}]:
        raise ValueError("minimal_generators with d0 needs x_0 as the first form")
    last = arr.size - 1 if d0 else arr.size
    euler = Derivation(n1, 1, tuple((j, tuple(int(k == j) for k in range(n1)), 1) for j in range(n1)))
    gens: list[Derivation] = [euler] if d0 else []
    dims: dict[int, int] = {}
    log: list[str] = []
    exit_reason = "exhausted"
    for d in range(last + 1):
        fresh = 0
        if d not in roots:
            dims[d] = free_dimension((g.degree for g in gens), n1 - 1, d)
        else:
            monos, multiples, known, kernel = _degree_system(arr, d, gens[1:] if d0 else gens, d0)
            span = IncrementalSpan(n1 * len(monos))
            for v in multiples:
                span.add(v)
            vectors = iter(kernel)
            # below upper the span may not be D(A)_d yet; at upper it is, and
            # every vector left is dependent, so none is lifted
            while span.rank < known + kernel.upper and (v := next(vectors, None)) is not None:
                residue = span.add(v)
                if residue is not None:
                    gens.append(vector_to_derivation(residue, n1, d, monos))
                    fresh += 1
            dims[d] = known + kernel.upper + (free_dimension((1,), n1 - 1, d) if d0 else 0)
        log.append(f"degree {d}: dim {dims[d]}, {fresh} new generator(s), total {len(gens)}")
        if len(gens) > n1:
            exit_reason = "overflow"
            log.append(
                f"stopped at degree {d}: {len(gens)} generators exceed the rank bound {n1}"
            )
            break
        if len(gens) == n1 and sum(g.degree for g in gens) == arr.size:
            exit_reason = "complete"
            log.append(
                f"stopped at degree {d}: {n1} generators with degree sum {arr.size}"
            )
            break
    else:
        log.append(f"search exhausted degrees 0..{last}")
    return GradedBasis(
        dimensions=dims,
        generators=tuple(gens),
        exit_reason=exit_reason,
        search_log=tuple(log),
    )


class FreenessReport(NamedTuple("FreenessReport", [
    ("free", bool), ("exponents", tuple[int, ...] | None), ("saito_scalar", Fraction | None),
    ("reason", str | None), ("search", GradedBasis),
])):
    """Saito's decision on search, the walk it judged: free with its generator degrees as exponents, or why not."""

    __slots__ = ()

    @property
    def verdict(self) -> str:
        """The decision as the line that closes the search's log."""
        if self.reason is None:
            return f"free: Saito determinant = {self.saito_scalar} * defining polynomial"
        return f"not free: {self.reason}"


def decide_freeness(arr: Arrangement, graded: GradedBasis) -> FreenessReport:
    """Saito's criterion on the generators that minimal_generators(arr) found.

    Saito's lemma (Orlik & Terao, Arrangements of Hyperplanes, Prop. 4.12):
    for theta_0, ..., theta_n in D(A), the defining polynomial Q divides
    det M(theta).  That determinant is zero or homogeneous of degree
    sum deg theta_i = |A|, so it is c * Q for a scalar c, read off as
    det M(theta)(x0) / Q(x0) at one point x0 off the arrangement.  By
    Saito's criterion the theta_i are a basis of D(A), and the
    arrangement is free, if and only if c != 0.

    The report holds graded as its search.  Its verdict is the first of
    four outcomes that holds, checked in this order: not free when the
    search overflowed the rank bound n + 1, not free when it found other
    than n + 1 generators, not free when their degrees do not sum to |A|,
    and otherwise free exactly when c != 0, with those degrees as exponents.
    """
    n1 = arr.nvars
    m = arr.size
    gens = graded.generators
    degrees = sorted(g.degree for g in gens)
    if graded.exit_reason == "overflow":
        reason = f"needs {len(gens)} minimal generators, more than the rank bound {n1}"
        scalar = None
    elif len(gens) != n1:
        reason = f"found {len(gens)} minimal generators through degree {max(graded.dimensions)}, expected {n1}"
        scalar = None
    elif sum(degrees) != m:
        reason = f"generator degrees {tuple(degrees)} sum to {sum(degrees)}, not {m}"
        scalar = None
    else:
        # x0 = (1, t, ..., t^n): a form is a nonzero polynomial of degree <= n in t,
        # so one of t = 0, ..., m*n leaves Q(x0), the product of the forms, nonzero
        for t in range(m * (n1 - 1) + 1):
            x0 = [t**j for j in range(n1)]
            q_x0 = prod(sum(c * x for c, x in zip(f.coeffs, x0)) for f in arr.forms)
            if q_x0:
                break
        # row i is the integer vector of theta_i at x0; theta_i is it over its first entry
        rows = [[0] * n1 for _ in gens]
        for row, g in zip(rows, gens):
            for j, mono, c in g.terms:
                row[j] += c * prod(map(pow, x0, mono))
        # Q is the product of the forms over their leads, so Q(x0) is q_x0 over the leads
        leads = prod(next(filter(None, f.coeffs)) for f in arr.forms)
        det = integer_det(rows) * leads
        reason = None if det else "Saito determinant vanishes"
        scalar = Fraction(det, q_x0 * prod(g.terms[0][2] for g in gens)) if det else None
    return FreenessReport(
        free=reason is None,
        exponents=tuple(degrees) if reason is None else None,
        saito_scalar=scalar,
        reason=reason,
        search=graded,
    )


def chern_class_free(freeness: FreenessReport) -> tuple[int, ...]:
    """Chern class of the projective log-derivation bundle of a free arrangement.

    With central exponents e_0 <= ... <= e_n, one exponent equal to 1 is
    consumed by the Euler field; the remaining n exponents give the
    truncated product of (1 + (1 - e) h) in A_*(P^n).
    """
    if not freeness.free:
        raise ValueError("arrangement is not free")
    exps = list(freeness.exponents)
    n = len(exps) - 1
    if 1 not in exps:
        raise InternalError("internal consistency failure: free exponents contain no Euler slot")
    exps.remove(1)
    factors = (FormalClass.make([1, 1 - e], n) for e in exps)
    return prod(factors, start=FormalClass.one(n)).coeffs
