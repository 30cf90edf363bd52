import random
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrcsm import cli, lattice
from arrcsm.arrangement import parse, parse_file
from arrcsm.lattice import (
    BadReductionError,
    build_lattice,
    char_poly,
    csm_complement,
    divide_by_t_minus,
    integer_roots,
    point_count_oracle,
    poly_eval_int,
    reduced_char_poly,
    render_poly_in_t,
)
from oracles import (
    fraction_rref,
    lead_one,
    poly_from_roots,
    primitive,
    rational_rows,
    reference_point_count,
)
from property_checks import arrangement_text

BOOLEAN = parse("vars 3\n1 0 0\n0 1 0\n0 0 1\n")
THREE_CONC = parse("vars 3\n0 1 0\n0 0 1\n0 1 1\n")
EMPTY = parse("vars 3\n")
CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def test_boolean_lattice_shape():
    lat = build_lattice(BOOLEAN)
    assert lat.size() == 8
    by_codim = {c: len(lat.of_codim(c)) for c in range(4)}
    assert by_codim == {0: 1, 1: 3, 2: 3, 3: 1}
    assert lat.flats[0].mu == 1
    for f in lat.of_codim(1):
        assert f.mu == -1
    for f in lat.of_codim(2):
        assert f.mu == 1
    (origin,) = lat.of_codim(3)
    assert origin.mu == -1
    assert origin.indices == (0, 1, 2)


def test_three_concurrent_lattice():
    lat = build_lattice(THREE_CONC)
    assert lat.size() == 5
    (point,) = lat.of_codim(2)
    assert point.mu == 2
    assert point.indices == (0, 1, 2)


def test_empty_lattice():
    lat = build_lattice(EMPTY)
    assert lat.size() == 1
    assert lat.flats[0].codim == 0
    assert lat.flats[0].indices == ()


def test_codim_one_flats_match_size():
    for arr in (BOOLEAN, THREE_CONC):
        lat = build_lattice(arr)
        assert len(lat.of_codim(1)) == arr.size


def test_char_poly_frozen():
    # ascending coefficients: p(t) = c0 + c1 t + c2 t^2 + ...
    assert char_poly(build_lattice(THREE_CONC)) == (0, 2, -3, 1)
    assert char_poly(build_lattice(BOOLEAN)) == (-1, 3, -3, 1)
    assert char_poly(build_lattice(EMPTY)) == (0, 0, 0, 1)


def test_char_poly_roots_boolean():
    # (t-1)^3 for the coordinate arrangement
    assert char_poly(build_lattice(BOOLEAN)) == poly_from_roots([1, 1, 1])


def test_reduced_char_poly():
    # t^3 - 3t^2 + 2t = (t-1) * (t^2 - 2t), so the reduced poly is t(t-2)
    assert reduced_char_poly(build_lattice(THREE_CONC)) == (0, -2, 1)
    assert reduced_char_poly(build_lattice(BOOLEAN)) == (1, -2, 1)
    with pytest.raises(ValueError):
        reduced_char_poly(build_lattice(EMPTY))


def test_poly_helpers():
    assert poly_eval_int((0, -2, 1), 5) == 15
    assert poly_from_roots([]) == (1,)
    assert poly_from_roots([2, 3]) == (6, -5, 1)
    with pytest.raises(ValueError):
        divide_by_t_minus((1, 1), 1)  # t + 1 is not divisible by t - 1
    assert divide_by_t_minus((-1, 0, 1), 1) == (1, 1)
    assert render_poly_in_t((0, -2, 1)) == "t^2 - 2*t"
    assert render_poly_in_t((1,)) == "1"


def test_division_by_t_minus_r():
    assert divide_by_t_minus(poly_from_roots([3, 2, 2]), 2) == poly_from_roots([3, 2])
    assert divide_by_t_minus(poly_from_roots([0, 5]), 0) == poly_from_roots([5])
    with pytest.raises(ValueError):
        divide_by_t_minus(poly_from_roots([3, 2]), 1)


def test_reduced_char_poly_times_t_minus_1_is_chi():
    for path in sorted(CORPUS.glob("*.arr")):
        lat = build_lattice(parse_file(path))
        reduced = reduced_char_poly(lat)
        times_t = (0, *reduced)
        assert tuple(a - b for a, b in zip(times_t, reduced + (0,))) == char_poly(lat), path.stem


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.lists(st.integers(0, 9), max_size=6))
def test_integer_roots_round_trip(roots):
    assert integer_roots(poly_from_roots(roots)) == tuple(sorted(roots))


def test_integer_roots_of_arrangements():
    assert integer_roots(char_poly(build_lattice(BOOLEAN))) == (1, 1, 1)
    assert integer_roots(char_poly(build_lattice(THREE_CONC))) == (0, 1, 2)
    assert integer_roots(char_poly(build_lattice(EMPTY))) == (0, 0, 0)
    assert integer_roots(char_poly(build_lattice(parse("vars 5\n")))) == (0,) * 5
    # four generic lines: (t - 1)(t^2 - 3t + 3) has no real root but 1
    four_generic = char_poly(build_lattice(parse_file(CORPUS / "four_generic.arr")))
    assert four_generic == (-3, 6, -4, 1)
    assert integer_roots(four_generic) is None
    assert integer_roots(char_poly(build_lattice(parse_file(CORPUS / "generic5_p3.arr")))) is None
    for m in range(4, 12):  # m generic lines: chi(1) = 0 fixes the constant term
        generic = (m - 1 - comb(m, 2), comb(m, 2), -m, 1)
        assert poly_eval_int(generic, 1) == 0
        assert integer_roots(generic) is None, m
    # not monic, negative roots, and a sum of roots below zero
    assert integer_roots((-2, 2)) is None
    assert integer_roots(poly_from_roots([-1, 2])) is None
    assert integer_roots(poly_from_roots([-3, 1])) is None


def test_csm_frozen_vectors():
    assert csm_complement(build_lattice(THREE_CONC)) == (1, 0, -1)
    assert csm_complement(build_lattice(BOOLEAN)) == (1, 0, 0)
    assert csm_complement(build_lattice(EMPTY)) == (1, 3, 3)


def test_csm_inclusion_exclusion_decomposition():
    # The three concurrent lines: ambient P^2 contributes (1, 3, 3), each of
    # the three lines subtracts (0, 1, 2), and the common point adds back
    # twice (0, 0, 1).  Summing with multiplicities mu gives the class.
    ambient = (1, 3, 3)
    line = (0, 1, 2)
    point = (0, 0, 1)
    total = tuple(
        ambient[i] - 3 * line[i] + 2 * point[i] for i in range(3)
    )
    assert total == csm_complement(build_lattice(THREE_CONC))


def test_euler_characteristic():
    assert csm_complement(build_lattice(THREE_CONC))[-1] == -1
    assert csm_complement(build_lattice(BOOLEAN))[-1] == 0
    assert csm_complement(build_lattice(EMPTY))[-1] == 3


def test_point_count_oracle_frozen():
    assert point_count_oracle(THREE_CONC, 5) == 15
    assert point_count_oracle(BOOLEAN, 5) == 16
    assert point_count_oracle(EMPTY, 3) == 13


def test_oracle_matches_reduced_char_poly():
    for arr in (BOOLEAN, THREE_CONC, EMPTY):
        if arr.size:
            poly = reduced_char_poly(build_lattice(arr))
        else:
            # complement of nothing: all of P^2, (p^3-1)/(p-1) points
            poly = (1, 1, 1)
        for p in (2, 3, 5, 7, 11):
            assert point_count_oracle(arr, p) == poly_eval_int(poly, p)


def test_oracle_bad_reduction():
    arr = parse("vars 2\n1 1/101\n")
    with pytest.raises(BadReductionError):
        point_count_oracle(arr, 101)
    # a prime not dividing the denominator is fine; P^1 minus one point
    # has p F_p-points
    assert point_count_oracle(arr, 7) == 7


def test_oracle_validates_prime():
    with pytest.raises(ValueError):
        point_count_oracle(BOOLEAN, 6)
    with pytest.raises(ValueError):
        point_count_oracle(BOOLEAN, 1009)


def test_oracle_refuses_a_chart_over_its_point_bound():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"997\^3 points exceeds the bound of 2000000"):
            point_count_oracle(parse("vars 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"), 997)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _oracle_peak(arr, p: int) -> tuple[int, int]:
    """(count, traced peak bytes) of one point_count_oracle call."""
    tracemalloc.start()
    try:
        count = point_count_oracle(arr, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return count, peak


def test_oracle_sweeps_a_p3_chart_fibre_by_fibre():
    # The largest chart holds 101^3 points: 101 bit grids, one per value of
    # y_1, of 101 rows of 26 bytes each, 265 kB in all, where one int64
    # array of the chart would take 8.2 MB.
    arr = parse_file(CORPUS / "generic5_p3.arr")
    count, peak = _oracle_peak(arr, 101)
    assert count == poly_eval_int(reduced_char_poly(build_lattice(arr)), 101)
    assert peak < 4_000_000


def test_oracle_memory_does_not_grow_with_the_number_of_forms():
    # 60 planes in P^3 hold the peak to the bound of 5 planes: each form
    # ORs its marks into the one grid per prefix, and no grid per form is kept
    rng = random.Random(60)
    arr = parse(arrangement_text(4, [[rng.randint(1, 100) for _ in range(4)] for _ in range(60)]))
    count, peak = _oracle_peak(arr, 101)
    assert 0 < count < 101**3
    assert peak < 4_000_000


def _forms_mod_p(rng: random.Random, nvars: int, p: int, m: int) -> list[list[int]]:
    """m forms with a lead prime to p, and then two more.

    The first of them equals the first form mod p, and the second has no
    term in the last two coordinates, y_(n-1) and y_n of the charts.
    """

    def draw() -> list[int]:
        while True:
            f = [rng.choice((0, 0, 1, -1, p, rng.randint(-3 * p, 3 * p))) for _ in range(nvars)]
            if any(f) and next(filter(None, f)) % p:
                return f

    if not m:
        return []
    forms = [draw() for _ in range(m)]
    first = forms[0]
    lead = next(i for i, c in enumerate(first) if c)
    forms.append([c + p * rng.randint(-2, 2) if i > lead else c for i, c in enumerate(first)])
    flat = draw()
    flat[max(nvars - 2, 1):] = [0] * min(nvars - 1, 2)
    forms.append(flat if any(flat) else [1] + [0] * (nvars - 1))
    return forms


# (nvars, p): P^1 to P^3 at primes whose grid rows take 3 to 8 bytes, P^2
# at p = 101, and P^4, whose charts have two prefix coordinates
GRID_CASES = [(nvars, p) for nvars in (2, 3, 4) for p in (11, 13, 31)] + [(3, 101), (5, 5), (5, 7)]


@pytest.mark.parametrize("nvars, p", GRID_CASES)
def test_oracle_bit_grid_matches_the_point_by_point_count(nvars, p):
    rng = random.Random(1000 * nvars + p)
    for m in (0, 1, 4, 7):
        arr = parse(arrangement_text(nvars, _forms_mod_p(rng, nvars, p, m)))
        assert point_count_oracle(arr, p) == reference_point_count(arr, p)


def test_oracle_at_the_prime_bound_in_p2():
    # the lines (1, t, t^2), t = 1..40, and two coordinate lines: every
    # nonzero minor of their forms is a product of integers below 80, so
    # the lattice mod 997 is the lattice over Q.  Each of the 42 forms
    # marks the one 997-row grid of 250-byte rows (250 kB), and no grid
    # per form or per slope is kept
    rows = [[1, t, t * t] for t in range(1, 41)] + [[0, 1, 0], [0, 0, 1]]
    arr = parse(arrangement_text(3, rows))
    started = time.perf_counter()
    count = point_count_oracle(arr, 997)
    assert time.perf_counter() - started < 1.0
    assert count == poly_eval_int(reduced_char_poly(build_lattice(arr)), 997)
    assert _oracle_peak(arr, 997)[1] < 4_000_000


def test_lattice_flat_rows_are_canonical():
    lat = build_lattice(THREE_CONC)
    for flat in lat.of_codim(1):
        for row in rational_rows(flat.span):
            assert all(isinstance(v, Fraction) for v in row)
            lead = next(v for v in row if v)
            assert lead == 1


# Every minor of the small integer rows below is far below 2^61 - 1
# (Hadamard's bound), so ranks modulo this prime are ranks over Q.
BIG_PRIME = 2**61 - 1


def _rank(rows) -> int:
    work = [[x % BIG_PRIME for x in r] for r in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], -1, BIG_PRIME)
        for i in range(rank + 1, len(work)):
            if work[i][col]:
                f = work[i][col] * inv
                work[i] = [(a - f * b) % BIG_PRIME for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def _brute_force_flats(arr):
    """{(indices, codim, mu)} from every subset of the forms.

    The flat of a subset S is its closure, the forms whose row does not
    raise the rank of S; mu of a flat is the sum of (-1)^|S| over the
    subsets S whose closure it is.
    """
    rows = [primitive(lead_one(f)) for f in arr.forms]
    mu: dict[tuple[int, ...], int] = {}
    codim: dict[tuple[int, ...], int] = {}
    for k in range(len(rows) + 1):
        for subset in combinations(range(len(rows)), k):
            r = _rank([rows[i] for i in subset])
            closure = tuple(
                i for i in range(len(rows))
                if _rank([rows[j] for j in subset] + [rows[i]]) == r
            )
            mu[closure] = mu.get(closure, 0) + (-1) ** k
            codim[closure] = r
    return {(idx, codim[idx], m) for idx, m in mu.items()}


def _random_rows(rng: random.Random, nvars: int) -> list[list[int]]:
    """Forms drawn from a random subspace, with pencils through a point."""
    dim = rng.randint(1, nvars)  # dim < nvars gives a non-essential arrangement
    gens = [[rng.randint(-2, 2) for _ in range(nvars)] for _ in range(dim)]
    rows = []
    for _ in range(rng.randint(0, 7)):
        # a pencil uses two generators only, so several lines share a point
        use = gens[:2] if rng.random() < 0.4 else gens
        weights = [rng.randint(-2, 2) for _ in use]
        rows.append([sum(w * g[j] for w, g in zip(weights, use)) for j in range(nvars)])
    return [r for r in rows if any(r)]


def _nested_rows(rng: random.Random, nvars: int) -> list[list[int]]:
    """Seven forms from nested spans of 2, 3 and 4 generators and one random form, shuffled.

    The forms of each span meet in one flat, so flats of codim 3 and 4
    hold many hyperplanes, and their Weisner sums have several terms.
    """
    gens = [[rng.randint(-2, 2) for _ in range(nvars)] for _ in range(4)]
    rows = [[rng.randint(-2, 2) for _ in range(nvars)]]
    for k, count in ((2, 3), (3, 2), (4, 2)):
        for _ in range(count):
            weights = [rng.randint(-2, 2) for _ in range(k)]
            rows.append([sum(w * g[j] for w, g in zip(weights, gens)) for j in range(nvars)])
    rng.shuffle(rows)
    return [r for r in rows if any(r)]


def _weisner_terms(flats, x) -> int:
    """The flats covered by x that miss x's smallest hyperplane: the terms of Weisner's sum for mu(x)."""
    return sum(
        y.codim == x.codim - 1 and set(y.indices) < set(x.indices) and min(x.indices) not in y.indices
        for y in flats
    )


def test_lattice_matches_brute_force_over_subsets():
    rng = random.Random(8080)
    essential = nonessential = concurrent = several = 0
    shapes = [(rng.randint(2, 4), _random_rows) for _ in range(200)] + [(5, _nested_rows)] * 12
    for nvars, draw in shapes:
        rows = draw(rng, nvars)
        arr = parse(arrangement_text(nvars, rows))
        flats = build_lattice(arr).flats
        assert {(f.indices, f.codim, f.mu) for f in flats} == _brute_force_flats(arr), arr.forms
        for f in flats:
            assert rational_rows(f.span) == fraction_rref(lead_one(arr.forms[i]) for i in f.indices)
        essential += arr.rank() == nvars
        nonessential += arr.size > 0 and arr.rank() != nvars
        concurrent += any(f.codim == 2 and len(f.indices) >= 3 for f in flats)
        # in 5 variables, a flat of codim 3 or 4 whose Weisner sum has two terms or more
        several += nvars == 5 and any(_weisner_terms(flats, x) >= 2 for x in flats if x.codim in (3, 4))
    assert essential > 20 and nonessential > 20 and concurrent > 20 and several == 12


def test_flats_come_in_codim_then_rref_order():
    # the sort multiplies each row by scale // (its pivot entry) unless
    # every pivot entry is 1, as in the goldens; here about half the
    # arrangements have a pivot entry above 1, and the order must be that
    # of the RREF rows over Q all the same
    rng = random.Random(2525)
    scaled = 0
    for _ in range(200):
        nvars = rng.randint(2, 4)
        arr = parse(arrangement_text(nvars, _random_rows(rng, nvars)))
        flats = build_lattice(arr).flats
        keys = [(f.codim, fraction_rref(lead_one(arr.forms[i]) for i in f.indices)) for f in flats]
        assert keys == sorted(keys) and len(set(keys)) == len(keys), arr.forms
        scaled += lcm(*(next(filter(None, row)) for f in flats for row in f.span)) > 1
    assert scaled > 20


def _moment_curve(nvars: int, m: int):
    """m forms (1, t, ..., t^(nvars-1)), t = 1..m: every nvars of them are independent."""
    return parse(arrangement_text(nvars, [[t**k for k in range(nvars)] for t in range(1, m + 1)]))


def _braid(k: int):
    """x_i - x_j for 0 <= i < j <= k, in k + 1 coordinates: rank k, not essential."""
    rows = [[(c == i) - (c == j) for c in range(k + 1)] for i, j in combinations(range(k + 1), 2)]
    return parse(arrangement_text(k + 1, rows))


def test_walk_reduces_no_residue_against_flats_one_below_the_top(monkeypatch):
    # 12 generic lines, rank 3: the bottom's residues are the forms as they
    # are, each line steps the residues of the other 11, and the 66 points,
    # whose one cover is the top, none; a walk into the points would add
    # 66 * 10 more.  Each step and each row a join eliminates takes one gcd,
    # counted by the line that calls it: the build takes the steps alone,
    # and the first read of the flats the 66 joins that clear a line's row
    # at a point's new pivot
    lines = Counter()
    monkeypatch.setattr(
        lattice, "gcd", lambda *a, fn=lattice.gcd: lines.update([sys._getframe(1).f_lineno]) or fn(*a)
    )
    lat = build_lattice(_moment_curve(3, 12))
    assert sorted(lines.values()) == [12 * 11]
    assert len(lat.flats) == 1 + 12 + 66 + 1
    assert sorted(lines.values()) == [66, 12 * 11]


def _cover_visits(monkeypatch, arr) -> int:
    """The (flat, cover) pairs build_lattice visits: each sorts the cover's index tuple once."""
    visits = []
    with monkeypatch.context() as m:
        m.setattr(lattice, "sorted", lambda a: visits.append(type(a) is tuple) or sorted(a), raising=False)
        build_lattice(arr)
    return sum(visits)


def test_walk_visits_only_weisners_cover_pairs(monkeypatch):
    # a pair Y < X counts toward mu(X) only when Y misses X's smallest
    # hyperplane: a point {i, j}, i < j, of generic lines is met from {j}
    # alone (12 + 66, not 12 + 2 * 66), and a point {i, j, k} of generic
    # planes from {j, k} alone
    assert _cover_visits(monkeypatch, _moment_curve(3, 12)) == 12 + 66
    assert _cover_visits(monkeypatch, _moment_curve(4, 12)) == 12 + 66 + 220
    # braid A4: the pairs Y covered by X, X below the top, with min X not in Y
    arr = _braid(4)
    flats = build_lattice(arr).flats
    pairs = sum(_weisner_terms(flats, x) for x in flats if x.codim < arr.rank())
    assert _cover_visits(monkeypatch, arr) == pairs == 81


# (command, corpus file) -> (reads of the flats, _join calls) in one run:
# no join where only chi is read, and num_flats - 2 where the flats are
READS_AND_JOINS = {
    ("csm", "generic5_p3.arr"): (0, 0),
    ("charpoly", "braid_essential.arr"): (0, 0),
    ("verify", "generic5_p3.arr"): (0, 0),
    ("verify", "three_concurrent.arr"): (1, 3),
    ("lattice", "tetrahedron_p3.arr"): (1, 14),
    ("report", "generic5_p3.arr"): (1, 25),
    ("report", "near_pencil_4.arr"): (1, 8),
    ("freeness", "four_generic.arr"): (0, 0),
    ("derivations", "four_generic.arr"): (0, 0),
}


@pytest.mark.parametrize("argv,made", [(list(case), made) for case, (made, _) in READS_AND_JOINS.items()])
def test_only_a_reader_of_the_flats_makes_them(monkeypatch, argv, made):
    # chi and the CSM class read the sums of mu by codim; verify's first
    # lattice is read for chi alone, and its second makes its flats only for
    # the P^2 routes; lattice and report make them once.  The walk makes no
    # span: the first read of the flats joins every flat but the bottom and
    # the top, whose span is the arrangement's own
    reads, calls = [], []
    make = lattice.IntersectionLattice.flats.func
    flats = cached_property(lambda lat: reads.append(lat) or make(lat))
    flats.__set_name__(lattice.IntersectionLattice, "flats")
    monkeypatch.setattr(lattice.IntersectionLattice, "flats", flats)
    monkeypatch.setattr(lattice, "_join", lambda *a, fn=lattice._join: calls.append(1) or fn(*a))
    assert cli.run([argv[0], "--input", str(CORPUS / argv[1])]) == 0
    assert len(reads) == made
    assert len(calls) == READS_AND_JOINS[tuple(argv)][1]
    assert all(len(lat.flats) - 2 == len(calls) for lat in reads)


def _count_fractions(monkeypatch) -> list:
    """A list that gets one entry for each Fraction made from now on."""
    made = []
    new = Fraction.__new__
    counted = staticmethod(lambda *a, **k: made.append(1) or new(*a, **k))
    monkeypatch.setattr(Fraction, "__new__", counted)
    return made


def test_build_lattice_makes_no_fraction(monkeypatch):
    # the walk, the sort and the top's span are integers; the sort waits for
    # the first read of the flats; reading a span's rational rows shows that
    # the count works
    arrs = [_braid(5), _moment_curve(4, 12)]
    made = _count_fractions(monkeypatch)
    lats = [build_lattice(arr) for arr in arrs]
    assert [len(lat.flats) for lat in lats] and not made
    assert [lat.size() for lat in lats] == [203, 1 + 12 + comb(12, 2) + comb(12, 3) + 1]
    assert rational_rows(lats[1].of_codim(1)[-1].span) and made


def test_lattice_output_makes_no_fraction(monkeypatch):
    # the basis is rendered from the integer span and written by _json; the
    # RREF rows of braid A5 and of the moment curve are integers, and those
    # of 2x + 3y = 0 hold 3/2
    arrs = [_braid(5), _moment_curve(4, 12), parse(arrangement_text(3, [[2, 3, 0], [0, 1, 1]]))]
    lats = [build_lattice(arr) for arr in arrs]
    made = _count_fractions(monkeypatch)
    texts = []
    for lat in lats:
        pieces = []
        cli._json(cli._lattice_payload(lat), pieces.append)
        texts.append("".join(pieces))
    assert not made
    assert ["/" in text for text in texts] == [False, False, True] and '"3/2"' in texts[2]


def test_lattice_output_renders_each_distinct_row_once(monkeypatch):
    # braid A5's 544 span rows hold 15 distinct rows; the moment curve's
    # 808 hold 463
    counts = []
    render = cli._over_lead
    for arr in (_braid(5), _moment_curve(4, 12)):
        lat = build_lattice(arr)
        rendered = []
        monkeypatch.setattr(cli, "_over_lead", lambda row: rendered.append(row) or render(row))
        cli._json(cli._lattice_payload(lat), [].append)
        rows = [row for f in lat.flats for row in f.span]
        assert sorted(rendered) == sorted(set(rows))
        counts.append((len(rows), len(rendered)))
    assert counts == [(544, 15), (808, 463)]


@pytest.mark.parametrize("command", ["lattice", "charpoly", "csm", "verify", "freeness", "derivations", "report"])
def test_json_on_integer_tokens_makes_no_fraction(monkeypatch, capsys, tmp_path, command):
    # parse keeps integer tokens as ints, and every printed rational is
    # written from ints: the forms and the flats over their leads, the
    # generators over theirs, a blow-up centre from the cross product of
    # its span rows.  The one Fraction is Saito's scalar, made once per
    # free verdict.  The first of the four independent planes, which are
    # free, is (1, 3/2, 0, 1/2) over its lead; three of the lines meet in
    # [1 : 1/2 : 0], a free near-pencil with the fourth line and not free
    # with a fifth
    inputs = (
        ([[2, 3, 0, 1], [0, 1, 1, 0], [1, 0, 0, 5], [4, 4, 1, 1]], True, '"3/2"'),
        ([[1, -2, 0], [0, 0, 1], [1, -2, 1], [1, 1, 3]], True, '"[1 : 1/2 : 0]"'),
        ([[1, -2, 0], [0, 0, 1], [1, -2, 1], [1, 1, 3], [1, 3, 2]], False, '"[1 : 1/2 : 0]"'),
    )
    searches = command in ("verify", "freeness", "derivations", "report")
    made = _count_fractions(monkeypatch)
    for i, (forms, free, shown) in enumerate(inputs):
        path = tmp_path / f"ints{i}.arr"
        path.write_text(arrangement_text(len(forms[0]), forms))
        made.clear()
        assert cli.run([command, "--input", str(path), "--json"]) == 0
        assert len(made) == (searches and free), forms
        out = capsys.readouterr().out
        if len(forms[0]) == 4 or command in ("verify", "report"):
            assert shown in out


def test_oracle_refuses_a_prime_dividing_a_lead(capsys, tmp_path):
    # 2x + y over its lead is x + y/2
    path = tmp_path / "lead2.arr"
    path.write_text("vars 2\n2 1\n")
    assert cli.run(["lattice", "--input", str(path), "--primes", "2"]) == 2
    assert capsys.readouterr().err == "error: denominator of 1/2 vanishes mod 2\n"


def test_lattices_in_closed_form():
    # braid A5: flats are the set partitions of 6 points, Bell(6) = 203, and
    # chi = t(t - 1)...(t - 5), whose coefficients are Stirling numbers s(6, k)
    braid = build_lattice(_braid(5))
    assert braid.size() == 203
    assert char_poly(braid) == (0, -120, 274, -225, 85, -15, 1)
    # m generic hyperplanes of rank r: every set of fewer than r is a flat
    # with mu (-1)^k, and the top closes the sum over the lattice to chi(1) = 0
    assert build_lattice(_moment_curve(3, 20)).size() == 1 + 20 + comb(20, 2) + 1 == 212
    planes = build_lattice(_moment_curve(4, 12))
    assert planes.size() == 1 + 12 + comb(12, 2) + comb(12, 3) + 1 == 300
    mus = {c: {f.mu for f in planes.of_codim(c)} for c in range(5)}
    assert mus == {0: {1}, 1: {-1}, 2: {1}, 3: {-1}, 4: {comb(11, 3)}}
    assert [len(planes.of_codim(c)) for c in range(5)] == [1, 12, 66, 220, 1]


@pytest.mark.parametrize(
    "first,second",
    [("1 1 -1", "1 -1 1"), ("1 1/2 1/3", "1 6 4")],
)
def test_proportional_residues_give_one_cover(first, second):
    # against x0 = 0 the last two forms leave residues (0, 1, -1) and (0, -1, 1),
    # or (0, 1/2, 1/3) and (0, 6, 4): proportional, so all three forms meet in one flat
    arr = parse(f"vars 3\n1 0 0\n{first}\n{second}\n")
    lat = build_lattice(arr)
    assert [f.indices for f in lat.of_codim(2)] == [(0, 1, 2)]
    assert lat.of_codim(2)[0].mu == 2
    assert {(f.indices, f.codim, f.mu) for f in lat.flats} == _brute_force_flats(arr)
