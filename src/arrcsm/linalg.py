"""Dense exact linear algebra over the rationals.

Matrices hold Fraction entries and every result is exact.  Pivots are
chosen by exact nonzero test (magnitude is irrelevant without rounding).
Kernel bases come out echelon-shaped and rescaled to leading coefficient
1, one vector per free column in ascending column order, so results are
deterministic and directly comparable.

QMatrix.kernel_basis eliminates modulo the prime p = 2^61 - 1 with plain
ints on sparse rows, lifts the pivot entries back to Q by rational
reconstruction, and keeps the lift only when every lifted vector is
annihilated exactly by the integer-scaled rows.  That check certifies
the lift as the Fraction RREF kernel basis (see _modular_kernel); when
it fails, the Fraction elimination computes the basis instead.
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


def _to_fraction_rows(rows: Iterable[Sequence[Scalar]]) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def _rref_in_place(mat: list[list[Fraction]]) -> list[int]:
    """Reduce mat to reduced row echelon form; returns pivot column list."""
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1) / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return pivots


def _integer_rows(rows: Iterable[Sequence[Fraction]]) -> list[dict[int, int]]:
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

    Rows join one at a time.  Each basis row has a 1 at its pivot and 0
    at every other pivot, so a new row is reduced by one pass over the
    pivots it touches; the RREF of a span is unique, so the join order
    does not matter.
    """
    basis: dict[int, dict[int, int]] = {}
    for row in rows:
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


def _modular_kernel(rows: Sequence[Sequence[Fraction]], ncols: int) -> list[Vector] | None:
    """The RREF kernel basis of rows, found mod p and certified over Q; None if unproven.

    For each mod-p free column fc the lifted vector has entry 1 at fc and
    is supported on fc and the mod-p pivots before it.  If every such
    vector is exactly annihilated by the rows, they are ncols - rank_p
    independent vectors of the rational kernel, and rank_Q >= rank_p, so
    they span it.  Each one writes column fc through earlier columns, so
    the mod-p pivots are exactly the greedy pivots over Q and each vector
    is the one the Fraction RREF gives for fc.
    """
    int_rows = _integer_rows(rows)
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


class QMatrix:
    """Immutable dense rational matrix."""

    __slots__ = ("nrows", "ncols", "entries", "_rref_cache")

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
        self._rref_cache: tuple[tuple[Vector, ...], tuple[int, ...]] | None = None

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def rref(self) -> tuple["QMatrix", tuple[int, ...]]:
        if self._rref_cache is None:
            work = [list(r) for r in self.entries]
            pivots = _rref_in_place(work)
            rows = tuple(tuple(r) for r in work)
            self._rref_cache = (rows, tuple(pivots))
        rows, pivots = self._rref_cache
        m = QMatrix(rows, ncols=self.ncols)
        return m, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[Vector]:
        """Basis of {v : M v = 0}, one vector per free column.

        Vectors are ordered by free column index and rescaled so the
        first nonzero entry is 1.
        """
        basis = _modular_kernel(self.entries, self.ncols)
        if basis is not None:
            return basis
        reduced, pivots = self.rref()
        pivot_set = set(pivots)
        free_cols = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for fc in free_cols:
            v = [Fraction(0)] * self.ncols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -reduced.entries[r][fc]
            lead = next(x for x in v if x)
            basis.append(tuple(x / lead for x in v))
        return basis

    def mul_vec(self, v: Sequence[Scalar]) -> Vector:
        vv = [Fraction(x) for x in v]
        if len(vv) != self.ncols:
            raise ValueError("dimension mismatch")
        return tuple(sum((a * b for a, b in zip(row, vv)), Fraction(0)) for row in self.entries)

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.ncols == other.ncols and self.entries == other.entries

    def __repr__(self) -> str:
        return f"QMatrix({self.nrows}x{self.ncols})"


class IncrementalSpan:
    """Growing subspace kept in reduced row echelon form.

    add() reduces the candidate against the current span; dependent
    vectors return None, independent ones return their canonical
    residue (leading coefficient 1) and join the span.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: list[tuple[int, list[Fraction]]] = []  # (pivot, row), pivot ascending

    def rank(self) -> int:
        return len(self._rows)

    def add(self, v: Sequence[Scalar]) -> Vector | None:
        work = [Fraction(x) for x in v]
        if len(work) != self.dim:
            raise ValueError("dimension mismatch")
        for pivot, row in self._rows:
            if work[pivot]:
                factor = work[pivot]
                work = [a - factor * b for a, b in zip(work, row)]
        lead = next((j for j, x in enumerate(work) if x), None)
        if lead is None:
            return None
        inv = Fraction(1) / work[lead]
        work = [x * inv for x in work]
        for _, row in self._rows:
            if row[lead]:
                factor = row[lead]
                row[:] = [a - factor * b for a, b in zip(row, work)]
        self._rows.append((lead, list(work)))
        self._rows.sort(key=lambda t: t[0])
        return tuple(work)

    def contains(self, v: Sequence[Scalar]) -> bool:
        work = [Fraction(x) for x in v]
        for pivot, row in self._rows:
            if work[pivot]:
                factor = work[pivot]
                work = [a - factor * b for a, b in zip(work, row)]
        return not any(work)


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
    rows = _to_fraction_rows(vectors)
    if not rows:
        return ()
    _rref_in_place(rows)
    return tuple(tuple(r) for r in rows if any(r))

def span_contains(basis: Sequence[Sequence[Fraction]], v: Sequence[Scalar]) -> bool:
    """Membership test against an RREF basis."""
    work = [Fraction(x) for x in v]
    for row in basis:
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        if work[lead]:
            factor = work[lead] / row[lead]
            work = [a - factor * b for a, b in zip(work, row)]
    return not any(work)


def spans_equal(a: Iterable[Sequence[Scalar]], b: Iterable[Sequence[Scalar]]) -> bool:
    return rref_rows(a) == rref_rows(b)


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
