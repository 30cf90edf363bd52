"""Exact linear algebra over the rationals.

Every result is exact: dense matrices and spans hold Fraction entries,
and the modular kernel's sparse integer rows are certified over Q.
Pivots are chosen by exact nonzero test (magnitude is irrelevant without
rounding).  Kernel bases come out echelon-shaped and rescaled to leading
coefficient 1, one vector per free column in ascending column order, so
results are deterministic and directly comparable.  Determinants come
in two kinds: QMatrix.det for scalars and poly_det for polynomials.

Every Fraction elimination runs through one core that keeps a span as
RREF rows keyed by pivot column: _reduce clears a vector at those
pivots and _insert joins it to the span.  rref_rows, IncrementalSpan.add,
the integer_kernel fallback and lattice.build_lattice all call it.

integer_kernel eliminates sparse integer rows modulo the prime
p = 2^61 - 1 with plain ints, lifts the pivot entries back to Q by
rational reconstruction, and keeps the lift only when every lifted
vector is annihilated exactly by the rows.  That check certifies the
lift as the Fraction RREF kernel basis (see _modular_kernel); when it
fails, the Fraction elimination computes the basis instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Sequence

from .poly import MultiPoly, Scalar

Vector = tuple[Fraction, ...]

_P = 2**61 - 1
# Wang's bound: a residue has at most one lift n/d with |n|, d <= _LIFT_BOUND.
_LIFT_BOUND = isqrt(_P // 2)
_ZERO = Fraction(0)


def _reduce(basis: dict[int, Sequence[Fraction]], v: list[Fraction]) -> list[Fraction]:
    """v minus the combination of basis rows that clears v at every pivot.

    basis maps each pivot column to its RREF row: 1 at that pivot and 0
    at every other pivot, so one pass in any order clears them all.
    """
    for pc, row in basis.items():
        c = v[pc]
        if c:
            v = [a - c * b if b else a for a, b in zip(v, row)]
    return v


def _insert(basis: dict[int, Sequence[Fraction]], v: list[Fraction]) -> list[Fraction] | None:
    """Join v to the span kept in basis, which stays in RREF.

    Returns the residue of v scaled to leading coefficient 1 (the new
    basis row), or None when v already lies in the span.
    """
    v = _reduce(basis, v)
    lead = next((j for j, x in enumerate(v) if x), None)
    if lead is None:
        return None
    if v[lead] != 1:
        inv = 1 / v[lead]
        v = [x * inv for x in v]
    for pc, row in basis.items():
        c = row[lead]
        if c:
            basis[pc] = [a - c * b if b else a for a, b in zip(row, v)]
    basis[lead] = v
    return v


def integer_rows(rows: Iterable[Sequence[Scalar]]) -> list[dict[int, int]]:
    """Each row times the lcm of its denominators, as {column: nonzero entry}."""
    out = []
    for row in rows:
        nonzero = [(j, x) for j, x in enumerate(row) if x]
        scale = lcm(*(x.denominator for _, x in nonzero))
        out.append({j: x.numerator * (scale // x.denominator) for j, x in nonzero})
    return out


def _subtract(work: dict[int, int], factor: int, row: dict[int, int], skip: int) -> None:
    """work -= factor * row over Z/p, leaving out column skip; drops zeros."""
    for j, b in row.items():
        if j != skip:
            v = (work.get(j, 0) - factor * b) % _P
            if v:
                work[j] = v
            else:
                del work[j]


def _rref_mod_p(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """RREF over Z/p of the span of sparse integer rows, as {pivot column: row}.

    Rows join one at a time, sparsest first: that keeps the basis rows
    sparse, and reduced braid A5's kernels about 4x faster than the
    given order.  Each basis row has a 1 at its pivot and 0 at every
    other pivot, so a new row is reduced by one pass over the pivots it
    touches; the RREF of a span is unique, so the join order does not
    change the result.
    """
    basis: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        work = {j: v for j, v in ((j, a % _P) for j, a in row.items()) if v}
        for c in [c for c in work if c in basis]:
            _subtract(work, work.pop(c), basis[c], c)
        if not work:
            continue
        lead = min(work)
        inv = pow(work[lead], -1, _P)
        work = {j: a * inv % _P for j, a in work.items()}
        for other in basis.values():
            factor = other.pop(lead, 0)
            if factor:
                _subtract(other, factor, work, lead)
        basis[lead] = work
    return basis


def _lift(a: int) -> tuple[int, int] | None:
    """(n, d) with n = a*d (mod p), |n| <= _LIFT_BOUND and 0 < d <= _LIFT_BOUND, or None.

    Rational reconstruction by the half extended Euclidean algorithm
    (Wang, Guy & Davenport, SIGSAM Bull. 1982).
    """
    r0, r1, s0, s1 = _P, a, 0, 1
    while r1 > _LIFT_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > _LIFT_BOUND:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def _modular_kernel(int_rows: Sequence[dict[int, int]], ncols: int) -> list[Vector] | None:
    """The RREF kernel basis of sparse integer rows, found mod p and certified; None if unproven.

    For each mod-p free column fc the lifted vector has entry 1 at fc and
    is supported on fc and the mod-p pivots before it.  If every such
    vector is exactly annihilated by the rows, they are ncols - rank_p
    independent vectors of the rational kernel, and rank_Q >= rank_p, so
    they span it.  Each one writes column fc through earlier columns, so
    the mod-p pivots are exactly the greedy pivots over Q and each vector
    is the one the Fraction RREF gives for fc.
    """
    reduced = _rref_mod_p(int_rows)
    # column j of the RREF and of the integer matrix, as (row key, entry) pairs
    rref_cols: list[list[tuple[int, int]]] = [[] for _ in range(ncols)]
    for pc, row in reduced.items():
        for j, a in row.items():
            if j != pc:
                rref_cols[j].append((pc, a))
    int_cols: list[list[tuple[int, int]]] = [[] for _ in range(ncols)]
    for i, row in enumerate(int_rows):
        for j, a in row.items():
            int_cols[j].append((i, a))
    basis: list[Vector] = []
    for fc in range(ncols):
        if fc in reduced:
            continue
        lifted = [(fc, 1, 1)]
        for pc, a in rref_cols[fc]:
            nd = _lift(_P - a)
            if nd is None:
                return None
            lifted.append((pc, *nd))
        den = lcm(*(d for _, _, d in lifted))
        w = {j: n * (den // d) for j, n, d in lifted}
        image: dict[int, int] = {}
        for j, wj in w.items():
            for i, a in int_cols[j]:
                image[i] = image.get(i, 0) + a * wj
        if any(image.values()):
            return None
        lead = w[min(w)]
        basis.append(tuple(Fraction(w[j], lead) if j in w else _ZERO for j in range(ncols)))
    return basis


def integer_kernel(rows: Sequence[dict[int, int]], ncols: int) -> list[Vector]:
    """Basis of {v : M v = 0} for sparse integer rows {column: entry}, as Fraction RREF gives it.

    One vector per free column, in column order, with first nonzero entry 1;
    found mod p and certified, or else from the rows made Fraction.
    """
    basis = _modular_kernel(rows, ncols)
    if basis is not None:
        return basis
    reduced: dict[int, Sequence[Fraction]] = {}
    for row in rows:
        _insert(reduced, [Fraction(row.get(j, 0)) for j in range(ncols)])
    basis = []
    for fc in range(ncols):
        if fc in reduced:
            continue
        v = [_ZERO] * ncols
        v[fc] = Fraction(1)
        for pc, row in reduced.items():
            v[pc] = -row[fc]
        lead = next(x for x in v if x)
        basis.append(tuple(x / lead for x in v))
    return basis


class QMatrix:
    """Immutable dense rational matrix."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, entries: Iterable[Sequence[Scalar]], ncols: int | None = None):
        rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
        if rows:
            widths = {len(r) for r in rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            ncols_found = widths.pop()
            if ncols is not None and ncols != ncols_found:
                raise ValueError("ncols does not match row width")
            ncols = ncols_found
        elif ncols is None:
            ncols = 0
        self.nrows = len(rows)
        self.ncols = ncols
        self.entries = rows

    def rank(self) -> int:
        return len(rref_rows(self.entries))

    def kernel_basis(self) -> list[Vector]:
        """Basis of {v : M v = 0}, one vector per free column, as integer_kernel gives it."""
        return integer_kernel(integer_rows(self.entries), self.ncols)

    def det(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        work = [list(r) for r in self.entries]
        sign = 1
        result = Fraction(1)
        for col in range(n):
            pivot_row = next((i for i in range(col, n) if work[i][col]), None)
            if pivot_row is None:
                return Fraction(0)
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
                sign = -sign
            pivot = work[col][col]
            result *= pivot
            for i in range(col + 1, n):
                if work[i][col]:
                    factor = work[i][col] / pivot
                    work[i] = [a - factor * b for a, b in zip(work[i], work[col])]
        return result * sign


class IncrementalSpan:
    """Growing subspace kept in reduced row echelon form.

    add() reduces the candidate against the current span; dependent
    vectors return None, independent ones return their canonical
    residue (leading coefficient 1) and join the span.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: dict[int, Sequence[Fraction]] = {}  # pivot column -> RREF row

    def add(self, v: Sequence[Scalar]) -> Vector | None:
        # converting every entry of long, mostly zero vectors dominated the search
        work = [x if type(x) is Fraction else Fraction(x) if x else _ZERO for x in v]
        if len(work) != self.dim:
            raise ValueError("dimension mismatch")
        residue = _insert(self._rows, work)
        return None if residue is None else tuple(residue)


def poly_det(rows: Sequence[Sequence[MultiPoly]]) -> MultiPoly:
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


def rref_rows(vectors: Iterable[Sequence[Scalar]]) -> tuple[Vector, ...]:
    """Canonical basis (RREF, zero rows dropped) of the span of the input."""
    basis: dict[int, Sequence[Fraction]] = {}
    for v in vectors:
        _insert(basis, [Fraction(x) for x in v])
    return tuple(tuple(basis[pc]) for pc in sorted(basis))


def intersect_spans(
    a: Sequence[Sequence[Scalar]],
    b: Sequence[Sequence[Scalar]],
    dim: int,
) -> tuple[Vector, ...]:
    """Canonical basis of span(a) intersected with span(b) in Q^dim."""
    a_basis = [tuple(Fraction(x) for x in row) for row in a]
    if not a_basis:
        return ()
    b_mat = QMatrix(b, ncols=dim)
    normals = b_mat.kernel_basis()
    if not normals:
        # span(b) is everything
        return rref_rows(a_basis)
    constraint = QMatrix(
        [[sum((x * y for x, y in zip(av, nv)), Fraction(0)) for av in a_basis] for nv in normals],
        ncols=len(a_basis),
    )
    coeff_vectors = constraint.kernel_basis()
    vectors = []
    for cv in coeff_vectors:
        v = [Fraction(0)] * dim
        for c, av in zip(cv, a_basis):
            if c:
                v = [x + c * y for x, y in zip(v, av)]
        vectors.append(v)
    return rref_rows(vectors)
