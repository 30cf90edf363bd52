import random
from fractions import Fraction
from math import gcd

import pytest

from arrcsm import linalg
from arrcsm.linalg import (
    IncrementalSpan,
    ModularKernel,
    QMatrix,
    _rref_mod_p,
    integer_det,
    integer_rows,
)
from oracles import (
    MultiPoly,
    _insert,
    dense,
    fraction_kernel,
    fraction_rref,
    intersect_spans,
    poly_det,
    primitive,
    rref_rows,
)


def test_kernel_single_row():
    assert QMatrix([[1, 1]]).kernel_basis() == [(Fraction(1), Fraction(-1))]


def test_kernel_zero_matrix_is_identity_basis():
    basis = QMatrix([[0, 0, 0]]).kernel_basis()
    assert basis == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]


def test_kernel_empty_matrix():
    basis = QMatrix([], ncols=2).kernel_basis()
    assert basis == [(1, 0), (0, 1)]


def test_rank_and_rref():
    m = QMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    reduced = rref_rows(m.entries)
    assert reduced == ((1, 0, 1), (0, 1, 1))
    assert len(fraction_rref(m.entries)) == 2
    # rref is idempotent
    assert rref_rows(reduced) == reduced


def test_det():
    assert integer_det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert integer_det([[0, 1], [1, 0]]) == -1
    assert integer_det([[1, 2], [2, 4]]) == 0
    # [[1/2, 0], [5, 3]] times 2: 2^2 * 3/2
    assert integer_det([[1, 0], [10, 6]]) == 6
    # the second pivot is 0 after one step and needs a row swap
    assert integer_det([[1, 1, 1], [1, 1, 2], [1, 2, 3]]) == -1
    assert integer_det([]) == 1


def test_poly_det_saito_matrix():
    # coefficient matrix of the rank-2 basis: euler field and (x0+x1)*x1*d1
    x0 = MultiPoly.linear_form([1, 0])
    x1 = MultiPoly.linear_form([0, 1])
    det = poly_det([[x0, x1], [MultiPoly.zero(2), (x0 + x1) * x1]])
    assert det == x0 * x1 * (x0 + x1)


def test_poly_det_matches_scalar_det():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.choice([2, 3])
        entries = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        polys = [[MultiPoly.const(1, e) for e in row] for row in entries]
        scalar = integer_det(entries)
        assert poly_det(polys) == MultiPoly.const(1, scalar)


def test_kernel_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = QMatrix([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])
        kernel = m.kernel_basis()
        assert len(fraction_rref(m.entries)) + len(kernel) == cols
        for v in kernel:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m.entries)


def test_rref_rows_canonical_under_row_operations():
    rng = random.Random(13)
    for _ in range(20):
        rows = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(3)]
        shuffled = [list(r) for r in rows]
        rng.shuffle(shuffled)
        scaled = [[Fraction(3) * x for x in r] for r in shuffled]
        assert rref_rows(rows) == rref_rows(scaled)


def test_intersect_spans():
    a = [[1, 0, 0], [0, 1, 0]]
    b = [[0, 1, 0], [0, 0, 1]]
    assert intersect_spans(a, b, 3) == ((Fraction(0), Fraction(1), Fraction(0)),)
    # intersection with the full space gives back the span
    full = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert intersect_spans(a, full, 3) == rref_rows(a)
    assert intersect_spans([], b, 3) == ()


def test_incremental_span():
    span = IncrementalSpan(3)
    assert span.add({}) is None
    assert span.add({0: 1, 1: 1}) is not None
    assert span.add({0: 2, 1: 2}) is None
    assert dense(span.add({2: 3}), 3) == primitive((0, 0, 1))
    assert span.add({0: 5, 1: 5, 2: 7}) is None
    # the residue of (1, 0, 0) against (1, 1, 0) and (0, 0, 1)
    assert dense(span.add({0: 1}), 3) == primitive((0, 1, 0))
    with pytest.raises(ValueError):
        span.add({3: 1})
    with pytest.raises(ValueError):
        span.add({-1: 1})


def test_incremental_span_residue_is_the_same_for_v_and_k_times_v():
    for k in (1, -1, 3, -10):
        plain, scaled = IncrementalSpan(4), IncrementalSpan(4)
        for v in ({0: 2, 1: -4, 3: 6}, {1: 3, 2: 9, 3: -6}, {0: 4, 1: 1, 2: 1}):
            residue = plain.add(v)
            assert residue == scaled.add({j: k * x for j, x in v.items()})
            assert all(type(x) is int and x for x in residue.values())
            assert list(residue) == sorted(residue)
            assert gcd(*residue.values()) == 1 and next(iter(residue.values())) > 0


def _oracle_residue(reduced, v):
    """v minus its RREF combination of the rows of reduced, scaled to leading entry 1; None if 0."""
    v = [Fraction(x) for x in v]
    for row in reduced:
        c = v[next(j for j, x in enumerate(row) if x)]
        v = [a - c * b for a, b in zip(v, row)]
    lead = next((x for x in v if x), None)
    return None if lead is None else tuple(x / lead for x in v)


def test_integer_core_matches_the_fraction_oracle():
    rng = random.Random(1968)
    denominators = [1, 2, 3, 5, 7, 11, 13, 17]  # pairwise coprime
    for _ in range(300):
        ncols = rng.randint(1, 6)
        rows = []
        for _ in range(rng.randint(0, 8)):
            kind = rng.random()
            if rows and kind < 0.2:
                rows.append(list(rng.choice(rows)))
            elif kind < 0.3:
                rows.append([Fraction(0)] * ncols)
            else:
                rows.append([
                    Fraction(rng.randint(-9, 9), rng.choice(denominators))
                    if rng.random() < 0.7 else Fraction(0)
                    for _ in range(ncols)
                ])
        assert rref_rows(rows) == fraction_rref(rows)
        span = IncrementalSpan(ncols)
        for k, v in enumerate(rows):
            expected = _oracle_residue(fraction_rref(rows[:k]), v)
            residue = span.add(integer_rows([v])[0])
            assert (residue and dense(residue, ncols)) == (expected and primitive(expected))


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        QMatrix([[1, 2], [1]])


def test_declared_width_checked():
    with pytest.raises(ValueError, match="ncols"):
        QMatrix([[1, 2]], ncols=3)
    empty = QMatrix([])
    assert (empty.nrows, empty.ncols) == (0, 0)
    assert empty.kernel_basis() == []


def _random_matrix(rng: random.Random) -> QMatrix:
    nrows = rng.randint(0, 8)
    ncols = rng.randint(0, 10)
    rank = rng.randint(0, min(nrows, ncols))
    span = rng.choice([1, 3, 9])

    def entry():
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.randint(-span, span), rng.randint(1, 7))

    base = [[entry() for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        if not base or rng.random() < 0.15:
            rows.append([Fraction(0)] * ncols)
            continue
        weights = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in base]
        rows.append([sum((w * b[j] for w, b in zip(weights, base)), Fraction(0)) for j in range(ncols)])
    return QMatrix(rows, ncols=ncols)


def test_kernel_matches_fraction_rref_on_random_matrices():
    rng = random.Random(2024)
    certified = 0
    for _ in range(400):
        m = _random_matrix(rng)
        expected = fraction_kernel(m.entries, m.ncols)
        assert m.kernel_basis() == expected
        kernel = ModularKernel(integer_rows(m.entries), range(m.ncols))
        assert [dense(v, m.ncols) for v in kernel] == [primitive(v) for v in expected]
        certified += kernel._exact is None
    # most small matrices take the certified modular path
    assert certified > 300


def test_fraction_fallback_matches_the_modular_kernel(monkeypatch):
    rng = random.Random(4242)
    matrices = [_random_matrix(rng) for _ in range(400)]
    modular = [m.kernel_basis() for m in matrices]
    monkeypatch.setattr(linalg.ModularKernel, "_lifted", lambda self, fc: None)
    assert [m.kernel_basis() for m in matrices] == modular


@pytest.mark.parametrize("fallback", [False, True])
def test_kernel_vectors_hold_their_free_column_and_the_pivots_before_it(monkeypatch, fallback):
    if fallback:
        monkeypatch.setattr(linalg.ModularKernel, "_lifted", lambda self, fc: None)
    rng = random.Random(1729)
    vectors = with_pivots = 0
    for _ in range(200):
        m = _random_matrix(rng)
        rows = integer_rows(m.entries)
        pivots = set(_rref_mod_p(rows))
        free = [c for c in range(m.ncols) if c not in pivots]
        kernel = list(ModularKernel(rows, range(m.ncols)))
        assert len(kernel) == len(free)
        for fc, v in zip(free, kernel):
            assert list(v) == sorted(v) and list(v)[-1] == fc
            assert set(v) <= {fc} | {pc for pc in pivots if pc < fc}
            assert all(type(a) is int and a for a in v.values())
            assert gcd(*v.values()) == 1 and next(iter(v.values())) > 0
            with_pivots += len(v) > 1
            vectors += 1
    # many vectors hold pivots; the others have no pivot before their free column
    assert 3 * with_pivots > vectors


def test_kernel_degenerate_shapes():
    for m in (QMatrix([], ncols=0), QMatrix([[]]), QMatrix([[], []]), QMatrix([], ncols=3),
              QMatrix([[0, 0], [0, 0]]), QMatrix([[Fraction(1, 3), Fraction(2, 7)]] * 3)):
        assert m.kernel_basis() == fraction_kernel(m.entries, m.ncols)
        expected = [primitive(v) for v in fraction_kernel(m.entries, m.ncols)]
        kernel = ModularKernel(integer_rows(m.entries), range(m.ncols))
        assert [dense(v, m.ncols) for v in kernel] == expected
        assert kernel._exact is None


@pytest.mark.parametrize(
    "rows,expected",
    [
        # p = 2^61 - 1 divides the pivot, so column 0 is free mod p but not over Q
        ([[2**61 - 1, 1]], [(Fraction(1), Fraction(-(2**61 - 1)))]),
        # the kernel entry -1/3^40 is far beyond the reconstruction bound
        ([[3**40, 1]], [(Fraction(1), Fraction(-(3**40)))]),
    ],
)
def test_kernel_falls_back_to_fractions(rows, expected):
    m = QMatrix(rows)
    kernel = ModularKernel(integer_rows(m.entries), range(m.ncols))
    assert [dense(v, m.ncols) for v in kernel] == [primitive(v) for v in expected]
    assert kernel._exact is not None
    assert m.kernel_basis() == expected == fraction_kernel(m.entries, m.ncols)


def test_a_failed_lift_goes_on_in_the_integer_core_without_a_second_rref(monkeypatch):
    # the k-th lift fails: the k vectors before it are the integer core's first k
    rng = random.Random(61)
    calls = []
    rref_mod_p, lifted = linalg._rref_mod_p, linalg.ModularKernel._lifted
    monkeypatch.setattr(linalg, "_rref_mod_p", lambda rows: calls.append(1) or rref_mod_p(rows))
    for _ in range(60):
        m = _random_matrix(rng)
        rows = integer_rows(m.entries)
        expected = [primitive(v) for v in fraction_kernel(m.entries, m.ncols)]
        for k in range(len(expected) + 1):
            tries = iter(range(len(expected) + 1))
            monkeypatch.setattr(linalg.ModularKernel, "_lifted",
                                lambda self, fc: None if next(tries) == k else lifted(self, fc))
            calls.clear()
            kernel = ModularKernel(rows, range(m.ncols))
            assert kernel.upper == len(expected)
            assert [dense(v, m.ncols) for v in kernel] == expected
            assert calls == [1]
            assert (kernel._exact is not None) == (k < len(expected))
            assert kernel.upper == len(expected)


def test_kernel_rows_that_lose_rank_mod_p(monkeypatch):
    # entries that p = 2^61 - 1 divides vanish mod p, so the rows can lose
    # rank there: upper starts above the kernel's dimension, and the lift of
    # a column that is a pivot over Q fails its check
    p = 2**61 - 1
    entries = [-2, -1, 0, 1, 2, p, -p, 2 * p]
    lifted = linalg.ModularKernel._lifted
    rng = random.Random(50)
    dropped = fell_back = 0
    for _ in range(200):
        ncols = rng.randint(1, 8)
        rows = []
        for _ in range(rng.randint(1, 6)):
            support = sorted(rng.sample(range(ncols), rng.randint(1, min(3, ncols))))
            rows.append({j: a for j in support if (a := rng.choice(entries))})
        expected = [primitive(v) for v in fraction_kernel([dense(row, ncols) for row in rows], ncols)]
        for fail in (False, True):
            monkeypatch.setattr(linalg.ModularKernel, "_lifted", (lambda self, fc: None) if fail else lifted)
            kernel = ModularKernel(rows, range(ncols))
            assert [dense(v, ncols) for v in kernel] == expected
            assert kernel.upper == len(expected)
            fell_back += not fail and kernel._exact is not None
        dropped += len(_rref_mod_p(rows)) < ncols - len(expected)
    assert dropped >= 50 and fell_back > dropped


def test_kernel_vectors_are_lifted_only_when_asked_for(monkeypatch):
    lifts = []
    lifted = linalg.ModularKernel._lifted
    monkeypatch.setattr(linalg.ModularKernel, "_lifted",
                        lambda self, fc: lifts.append(fc) or lifted(self, fc))
    kernel = ModularKernel([{0: 1, 1: 1, 3: 2}, {2: 1, 3: -1}], range(6))
    assert kernel.upper == 4 and lifts == []
    vectors = iter(kernel)
    assert next(vectors) == {0: 1, 1: -1}
    assert lifts == [1]
    assert next(vectors) == {0: 2, 2: -1, 3: -1}
    assert lifts == [1, 3]
    # the vectors are keyed by the columns given, which need not be 0..N-1;
    # a column in no row is free
    assert list(ModularKernel([{4: 1, 7: 1}], [4, 7])) == [{4: 1, 7: -1}]
    assert list(ModularKernel([{4: 1, 7: 1}], [2, 4, 7])) == [{2: 1}, {4: 1, 7: -1}]


def _random_sparse_vectors(rng: random.Random, ncols: int, count: int) -> list[dict[int, int]]:
    """Sparse integer vectors, some of them combinations of earlier ones."""
    vectors: list[dict[int, int]] = []
    for _ in range(count):
        if vectors and rng.random() < 0.3:
            v: dict[int, int] = {}
            for u in rng.sample(vectors, min(len(vectors), rng.randint(1, 3))):
                c = rng.choice([-3, -1, 1, 2])
                for j, a in u.items():
                    v[j] = v.get(j, 0) + c * a
        else:
            support = rng.sample(range(ncols), rng.randint(0, min(4, ncols)))
            v = {j: rng.choice([-9, -2, -1, 1, 3, 7, 2**40]) for j in support}
        vectors.append({j: v[j] for j in sorted(v) if v[j]})
    return vectors


def test_sparse_span_matches_the_dense_integer_core():
    rng = random.Random(2706)
    independent = dependent = 0
    for _ in range(300):
        ncols = rng.randint(1, 12)
        span, basis = IncrementalSpan(ncols), {}
        for v in _random_sparse_vectors(rng, ncols, rng.randint(1, 16)):
            residue = span.add(v)
            expected = _insert(basis, [v.get(j, 0) for j in range(ncols)])
            assert (residue and dense(residue, ncols)) == expected
            assert residue is None or list(residue) == sorted(residue)
            assert span.rank == len(basis)
            independent += residue is not None
            dependent += residue is None
    assert independent > 1000 and dependent > 500
