"""Exact linear algebra over the rationals.

Every result is exact: spans hold integer rows standing for rational
ones, the modular kernel's sparse integer rows are certified over Q,
and QMatrix holds Fraction entries.  Pivots are chosen by exact nonzero
test (magnitude is irrelevant without rounding).  Kernel bases come out
echelon-shaped, one vector per free column in ascending column order, so
results are deterministic and directly comparable.  integer_det is the
determinant of an integer matrix, which Saito's check reads.

Every RREF over Q runs through one integer core, _insert.  It keeps a
span as {pivot column: row}, each row a sparse primitive integer vector
{column: entry}, keys ascending: gcd 1, positive at its own pivot, its
first column, and 0 at every other pivot, so each row is its RREF row
times its pivot entry.  _insert clears a vector at the pivots it
touches and joins the residue to the span, each through _sparse_step,
one Bareiss step on the nonzero entries, with every intermediate value
an int.  The derivation search's IncrementalSpan, ModularKernel's
fallback _exact_kernel and Arrangement._independent call it.
lattice.build_lattice takes the same single steps on dense rows, written
out in its module: its residues are already 0 at their flat's pivots, so
one step at a cover's new pivot reduces them.  The search's vectors are
sparse throughout, primitive with their first entry positive.  QMatrix,
which makes its kernel vectors dense and divides each by its leading
entry, is the one place here that makes a Fraction; no shipped path
calls it (the tests and the benchmark's tracer read it).  A lattice
flat's span leaves as integer rows, which poly._over_lead writes.

ModularKernel eliminates sparse integer rows modulo the prime
p = 2^61 - 1 with plain ints, once, which bounds the kernel's dimension
from above.  Its columns are the caller's own column numbers.  It lifts
a kernel vector's pivot entries back to Q by rational reconstruction
only when the caller asks for that vector, and keeps the lift only when
the rows annihilate it exactly; checked in free-column order, each lift
is the vector the RREF over Q gives.  The first lift that fails hands
the rest to the integer core.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Iterator, Sequence

Scalar = int | Fraction
Vector = tuple[Fraction, ...]

_P = 2**61 - 1
# Wang's bound: a residue has at most one lift n/d with |n|, d <= _LIFT_BOUND.
_LIFT_BOUND = isqrt(_P // 2)


def _sparse_step(v: dict[int, int], row: dict[int, int], col: int) -> dict[int, int]:
    """row[col] * v - v[col] * row, which is 0 at col, divided by the gcd of its entries.

    v and row are {column: entry}, and so is the result, zeros left out.
    Fraction-free elimination in the manner of Bareiss (Math. Comp. 22,
    1968): every entry stays an int, and dividing by the gcd after each
    step keeps the entries from growing over many steps.
    """
    p, c = row[col], v[col]
    w = {j: p * a for j, a in v.items()}
    for j, b in row.items():
        a = w.get(j, 0) - c * b
        if a:
            w[j] = a
        else:
            del w[j]
    g = gcd(*w.values())
    return {j: a // g for j, a in w.items()} if g > 1 else w


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


def _primitive(v: dict[int, int]) -> dict[int, int]:
    """Nonzero sparse v over the gcd of its entries, keys ascending, first entry positive."""
    g = gcd(*v.values()) if v[min(v)] > 0 else -gcd(*v.values())
    return {j: v[j] // g for j in sorted(v)}


def _insert(rows: dict[int, dict[int, int]], v: dict[int, int]) -> dict[int, int] | None:
    """Join the sparse integer vector v to the span kept in rows, {pivot column: row}.

    Returns None when v already lies in the span, else v's primitive
    residue, keys ascending, which joins rows as the row of its first
    column.  v is not mutated, and the rows are rebound, never mutated;
    callers only read the residue returned.
    """
    v = {j: a for j, a in v.items() if a}
    # a step at one pivot scales v's entries at the other pivots, so v
    # touches the same pivots throughout
    for pc in [c for c in v if c in rows]:
        v = _sparse_step(v, rows[pc], pc)
    if not v:
        return None
    v = _primitive(v)
    lead = next(iter(v))
    for pc, row in rows.items():
        if lead in row:
            rows[pc] = _sparse_step(row, v, lead)
    rows[lead] = v
    return v


def _integer_vector(v: Sequence[Scalar]) -> list[int]:
    """v times the lcm of its denominators."""
    ratios = [x.as_integer_ratio() for x in v]
    scale = lcm(*(d for _, d in ratios))
    return [n * (scale // d) for n, d in ratios]


def _rational(row: Sequence[int], p: int) -> Vector:
    """row / p as Fractions."""
    return tuple(Fraction(a, p) for a in row)


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


def _exact_kernel(rows: Sequence[dict[int, int]], columns: Sequence[int]) -> list[dict[int, int]]:
    """ModularKernel's basis from the integer core: the rows reduced exactly, no prime."""
    reduced: dict[int, dict[int, int]] = {}
    for row in rows:
        _insert(reduced, row)
    basis = []
    for fc in columns:
        if fc in reduced:
            continue
        # e_fc - sum row[fc]/row[pc] e_pc, times the lcm of the row[pc] it divides by
        used = [(pc, row) for pc, row in reduced.items() if fc in row]
        scale = lcm(*(row[pc] for pc, row in used))
        w = {fc: scale}
        for pc, row in used:
            w[pc] = -row[fc] * (scale // row[pc])
        basis.append(_primitive(w))
    return basis


class ModularKernel:
    """The RREF kernel basis over Q of sparse integer rows, lifted from Z/p one vector at a time.

    columns lists the unknowns in ascending order, by the caller's own
    column numbers: the rows' keys lie among them, and the vectors
    yielded are keyed by them, keys ascending.  One _rref_mod_p of the
    rows gives upper = len(columns) - rank_p, an upper bound on the
    kernel's dimension: a minor that is nonzero mod p is nonzero over Z,
    so rank_p <= rank_Q.  Iterating yields the kernel vectors in
    ascending free-column order, and each is lifted and checked only
    when it is asked for.  The vector of the mod-p free column f has
    entry 1 at f and the lifts of the RREF entries at the mod-p pivots
    before f; when the rows annihilate it exactly, f is not a pivot over
    Q.  When every free column before f is checked too, the Q-pivots
    before f are exactly the mod-p pivots: none of those free columns is
    a Q-pivot, and rank_Q >= rank_p on the columns before f leaves no
    mod-p pivot out.  So the vector is the one the RREF over Q gives for
    f, here made primitive, as {column: entry} with keys ascending.  The
    first lift or check that fails sends the rest to the integer core,
    which reduces the rows exactly, with no second RREF mod p: the
    vectors already yielded are its first ones, it goes on from there,
    and upper becomes the exact dimension.
    """

    def __init__(self, rows: Sequence[dict[int, int]], columns: Sequence[int]):
        self.rows, self.columns = rows, columns
        self._reduced = _rref_mod_p(rows)
        self._free = [fc for fc in columns if fc not in self._reduced]
        self.upper = len(self._free)
        self._exact: list[dict[int, int]] | None = None  # the integer core's basis, once a lift fails
        self._cols: tuple[dict[int, list[tuple[int, int]]], ...] | None = None

    def __iter__(self) -> Iterator[dict[int, int]]:
        made = 0
        while self._exact is None and made < len(self._free):
            v = self._lifted(self._free[made])
            if v is None:
                self._exact = _exact_kernel(self.rows, self.columns)
                self.upper = len(self._exact)
            else:
                made += 1
                yield v
        yield from (self._exact or ())[made:]

    def _lifted(self, fc: int) -> dict[int, int] | None:
        """The checked kernel vector of free column fc, or None when its lift or check fails."""
        if self._cols is None:
            # each column of the RREF and of the integer rows, as (row key, entry) pairs
            rref_cols: dict[int, list[tuple[int, int]]] = {j: [] for j in self.columns}
            for pc, row in self._reduced.items():
                for j, a in row.items():
                    if j != pc:
                        rref_cols[j].append((pc, a))
            int_cols: dict[int, list[tuple[int, int]]] = {j: [] for j in self.columns}
            for i, row in enumerate(self.rows):
                for j, a in row.items():
                    int_cols[j].append((i, a))
            self._cols = rref_cols, int_cols
        rref_cols, int_cols = self._cols
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
        return None if any(image.values()) else _primitive(w)


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
        """Basis of {v : M v = 0}: ModularKernel's vectors scaled to leading entry 1."""
        kernel = ModularKernel(integer_rows(self.entries), range(self.ncols))
        return [_rational([v.get(j, 0) for j in range(self.ncols)], v[min(v)]) for v in kernel]


class IncrementalSpan:
    """Growing subspace of Q^dim, its span kept by _insert.

    add() takes a sparse integer vector with columns in 0..dim-1:
    dependent vectors return None, independent ones return their
    primitive residue, keys ascending, and join the span as a row.  The
    residue returned is that row; callers only read it.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: dict[int, dict[int, int]] = {}  # pivot column -> row

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, v: dict[int, int]) -> dict[int, int] | None:
        if v and not 0 <= min(v) <= max(v) < self.dim:
            raise ValueError(f"columns {min(v)}..{max(v)} outside 0..{self.dim - 1}")
        return _insert(self._rows, v)
