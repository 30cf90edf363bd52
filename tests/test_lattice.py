import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from arrcsm.arrangement import parse
from arrcsm.lattice import (
    BadReductionError,
    build_lattice,
    char_poly,
    csm_complement,
    divide_by_t_minus_1,
    point_count_oracle,
    poly_eval_int,
    poly_from_roots,
    reduced_char_poly,
    render_poly_in_t,
)
from property_checks import arrangement_text

BOOLEAN = parse("vars 3\n1 0 0\n0 1 0\n0 0 1\n")
THREE_CONC = parse("vars 3\n0 1 0\n0 0 1\n0 1 1\n")
EMPTY = parse("vars 3\n")


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
        divide_by_t_minus_1((1, 1))  # t + 1 is not divisible by t - 1
    assert divide_by_t_minus_1((-1, 0, 1)) == (1, 1)
    assert render_poly_in_t((0, -2, 1)) == "t^2 - 2*t"
    assert render_poly_in_t((1,)) == "1"


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


def test_lattice_flat_rows_are_canonical():
    lat = build_lattice(THREE_CONC)
    for flat in lat.of_codim(1):
        for row in flat.rows:
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
    rows = []
    for f in arr.forms:
        scale = lcm(*(c.denominator for c in f.coeffs))
        rows.append([int(c * scale) for c in f.coeffs])
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


def test_lattice_matches_brute_force_over_subsets():
    rng = random.Random(8080)
    essential = nonessential = concurrent = 0
    for _ in range(200):
        nvars = rng.randint(2, 4)
        rows = _random_rows(rng, nvars)
        arr = parse(arrangement_text(nvars, rows))
        flats = build_lattice(arr).flats
        assert {(f.indices, f.codim, f.mu) for f in flats} == _brute_force_flats(arr), arr.forms
        essential += arr.is_essential()
        nonessential += arr.size > 0 and not arr.is_essential()
        concurrent += any(f.codim == 2 and len(f.indices) >= 3 for f in flats)
    assert essential > 20 and nonessential > 20 and concurrent > 20
