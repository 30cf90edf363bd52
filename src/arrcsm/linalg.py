"""Exact linear algebra over the rationals.

Every result is exact: QMatrix holds Fraction entries, spans hold
integer rows standing for rational ones, and the modular kernel's sparse
integer rows are certified over Q.  Pivots are chosen by exact nonzero
test (magnitude is irrelevant without rounding).  Kernel bases come out
echelon-shaped, one vector per free column in ascending column order, so
results are deterministic and directly comparable.  integer_det is the
determinant of an integer matrix, which Saito's check reads.

Every RREF over Q runs through one integer core.  It keeps
a span as {pivot column: row}, each row a dense primitive integer
vector: gcd 1, positive at its own pivot and 0 at every other pivot, so
each row is its RREF row times its pivot entry, and its pivot is its
first nonzero entry.  _reduce clears a vector at those pivots and
_insert joins it to the span, each through _eliminate, one Bareiss step,
with every intermediate value an int.  IncrementalSpan.add, the
integer_kernel fallback and Arrangement._independent call _insert, and
LinearForm.make calls _reduce.  lattice.build_lattice takes single
_eliminate steps: its residues are already 0 at their flat's pivots,
so one step at a cover's new pivot reduces them.  The derivation
search's vectors are dense only inside this module.  Kernel
vectors and span residues leave it sparse, as {column: entry} with keys
ascending, primitive (gcd 1, first entry positive); IncrementalSpan.add
takes such vectors, and it and QMatrix.kernel_basis are the only places
one is made dense.  A Fraction is made here only where a result leaves
the integers: QMatrix.kernel_basis divides a vector by its leading
entry.  A lattice flat's span leaves as integer rows, which cli renders.

integer_kernel eliminates sparse integer rows modulo the prime
p = 2^61 - 1 with plain ints, lifts the pivot entries back to Q by
rational reconstruction, and keeps the lift only when every lifted
vector is annihilated exactly by the rows.  That check certifies the
lift as the RREF kernel basis over Q (see _modular_kernel); when it
fails, the integer core computes the basis instead.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

from .poly import Scalar

Vector = tuple[Fraction, ...]

_P = 2**61 - 1
# Wang's bound: a residue has at most one lift n/d with |n|, d <= _LIFT_BOUND.
_LIFT_BOUND = isqrt(_P // 2)
_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def integer_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination (Bareiss).

    After step k each a[i][j] with i, j > k is a minor of the input
    (Sylvester's identity), so every division by the previous pivot is exact.
    """
    a = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(len(a) - 1):
        swap = next((i for i in range(k, len(a)) if a[i][k]), None)
        if swap is None:
            return 0
        if swap != k:
            a[k], a[swap], sign = a[swap], a[k], -sign
        for i in range(k + 1, len(a)):
            a[i] = [(x * a[k][k] - a[i][k] * y) // prev for x, y in zip(a[i], a[k])]
        prev = a[k][k]
    return sign * a[-1][-1] if a else 1


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


def _primitive(v: dict[int, int]) -> dict[int, int]:
    """Nonzero sparse v over the gcd of its entries, keys ascending, first entry positive."""
    g = gcd(*v.values()) if v[min(v)] > 0 else -gcd(*v.values())
    return {j: v[j] // g for j in sorted(v)}


def _integer_vector(v: Sequence[Scalar]) -> list[int]:
    """v times the lcm of its denominators."""
    ratios = [x.as_integer_ratio() for x in v]
    scale = lcm(*(d for _, d in ratios))
    return [n * (scale // d) for n, d in ratios]


def _rational(row: Sequence[int], p: int) -> Vector:
    """row / p as Fractions.

    Zeros and ones are shared objects, so comparing two such vectors
    rarely calls Fraction.__eq__.
    """
    return tuple(_ZERO if a == 0 else _ONE if a == p else Fraction(a, p) for a in row)


def integer_rows(rows: Iterable[Sequence[Scalar]]) -> list[dict[int, int]]:
    """Each row times the lcm of its denominators, as {column: nonzero entry}."""
    return [{j: a for j, a in enumerate(_integer_vector(row)) if a} for row in rows]


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


def _modular_kernel(int_rows: Sequence[dict[int, int]], ncols: int) -> list[dict[int, int]] | None:
    """The RREF kernel basis of sparse integer rows, found mod p and certified; None if unproven.

    For each mod-p free column fc the lifted vector has entry 1 at fc and
    is supported on fc and the mod-p pivots before it.  If every such
    vector is exactly annihilated by the rows, they are ncols - rank_p
    independent vectors of the rational kernel, and rank_Q >= rank_p, so
    they span it.  Each one writes column fc through earlier columns, so
    the mod-p pivots are exactly the greedy pivots over Q and each vector
    is the one the RREF over Q gives for fc, here made primitive.
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
    basis: list[list[int]] = []
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
        basis.append(_primitive(w))
    return basis


def integer_kernel(rows: Sequence[dict[int, int]], ncols: int) -> list[dict[int, int]]:
    """Basis of {v : M v = 0} for sparse integer rows {column: entry}, as the RREF over Q gives it.

    One vector per free column fc, in column order, the RREF's vector
    made primitive, as {column: entry} with keys ascending: it holds fc
    and the pivots before it.  Found mod p and certified, or else from
    the integer core.
    """
    basis = _modular_kernel(rows, ncols)
    if basis is not None:
        return basis
    reduced: dict[int, list[int]] = {}
    for row in rows:
        _insert(reduced, [row.get(j, 0) for j in range(ncols)])
    basis = []
    for fc in range(ncols):
        if fc in reduced:
            continue
        # e_fc - sum row[fc]/row[pc] e_pc, times the lcm of the row[pc] it divides by
        used = [(pc, row) for pc, row in reduced.items() if row[fc]]
        scale = lcm(*(row[pc] for pc, row in used))
        w = {fc: scale}
        for pc, row in used:
            w[pc] = -row[fc] * (scale // row[pc])
        basis.append(_primitive(w))
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

    def kernel_basis(self) -> list[Vector]:
        """Basis of {v : M v = 0}: integer_kernel's vectors scaled to leading entry 1."""
        kernel = integer_kernel(integer_rows(self.entries), self.ncols)
        return [_rational([v.get(j, 0) for j in range(self.ncols)], v[min(v)]) for v in kernel]


class IncrementalSpan:
    """Growing subspace of Q^dim, kept as _insert keeps a span.

    add() takes a sparse integer vector {column: entry} and reduces it
    against the current span, the one place where the search's vectors
    are made dense: dependent vectors return None, independent ones
    return their primitive residue, sparse with keys ascending, and join
    the span.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: dict[int, list[int]] = {}  # pivot column -> primitive row, as _insert keeps it

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, v: dict[int, int]) -> dict[int, int] | None:
        if v and not 0 <= min(v) <= max(v) < self.dim:
            raise ValueError(f"columns {min(v)}..{max(v)} outside 0..{self.dim - 1}")
        dense = [0] * self.dim
        for j, a in v.items():
            dense[j] = a
        residue = _insert(self._rows, dense)
        return None if residue is None else {j: a for j, a in enumerate(residue) if a}
