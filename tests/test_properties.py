import json
import math
from fractions import Fraction
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrcsm import logder
from arrcsm.arrangement import Arrangement, ParseError, _parse_rational, parse
from arrcsm.chow import SurfaceClass, blowup_centers
from arrcsm.cli import _arrangement_payload, _json, _lattice_payload
from arrcsm.lattice import (
    BadReductionError,
    build_lattice,
    char_poly,
    csm_complement,
    point_count_oracle,
    reduced_char_poly,
)
from arrcsm.linalg import ModularKernel, QMatrix
from arrcsm.logder import _degree_kernel, degree_dimension, minimal_generators
from arrcsm.poly import FormalClass, _ratio, monomials_of_degree
from oracles import (
    cramer_adapted,
    dense,
    evaluation_rows,
    fraction_kernel,
    fraction_rref,
    lattice_payload,
    lead_one,
    primitive,
    rational_rows,
    reference_point_count,
    trailing_columns,
    whole_kernel_search,
)
from property_checks import (
    arrangement_text,
    assert_point_rows_match_reduction,
    derivation_render_matches_polys,
    euler_field,
    euler_membership,
    integer_det_matches_fraction_det,
    intersection_der,
    kernel_rank_exactness,
    mobius_alternation,
    point_rows_match_reduction,
    random_arrangement,
    random_rational_arrangement,
    reduction_invariance,
)


def test_mobius_alternation():
    assert mobius_alternation(Random(101), 50) == 50


def test_euler_membership():
    assert euler_membership(Random(202), 40) == 40


def test_reduction_invariance():
    assert reduction_invariance(Random(303), 40) == 40


def test_intersection_der():
    assert intersection_der(Random(404), 30) == 30


def test_kernel_rank_exactness():
    assert kernel_rank_exactness(Random(505), 60) == 60


def test_point_rows_match_reduction():
    assert point_rows_match_reduction(Random(606), 30) == 30


def test_integer_det_matches_fraction_det():
    assert integer_det_matches_fraction_det(Random(707), 200) == 200


def test_derivation_render_matches_polys():
    assert derivation_render_matches_polys(Random(808), 200) == 200


coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def arrangements(draw, max_forms=4):
    """1 to max_forms forms in 2 to 4 coordinates.

    Half the draws take at least nvars distinct forms over every
    coordinate, so that most of them are essential and the lattice's top
    is the origin; the others may hold a single form or leave coordinates
    out of every form.
    """
    nvars = draw(st.integers(2, 4))
    if draw(st.booleans()):
        form = st.tuples(*[coefficients] * nvars).filter(any)
        rows = draw(st.lists(form, min_size=nvars, max_size=max_forms, unique=True))
    else:
        used = draw(st.lists(st.booleans(), min_size=nvars, max_size=nvars).filter(any))
        form = st.tuples(*(coefficients if u else st.just(Fraction(0)) for u in used))
        rows = draw(st.lists(form.filter(any), min_size=1, max_size=max_forms))
    return parse(arrangement_text(nvars, rows))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(arrangements())
def test_point_rows_match_reduction_property(arr):
    assert_point_rows_match_reduction(arr)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(arrangements(max_forms=7))
def test_flats_come_in_order_of_codim_then_rref_rows(arr):
    flats = build_lattice(arr).flats
    rows = [fraction_rref(lead_one(arr.forms[i]) for i in f.indices) for f in flats]
    spans = [rational_rows(f.span) for f in flats]
    assert spans == rows == sorted(rows, key=lambda r: (len(r), r))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(arrangements(max_forms=7))
def test_lattice_basis_strings_are_the_rref_rows(arr):
    lat = build_lattice(arr)
    flats = json.loads(_written(_lattice_payload(lat)))["flats"]
    for flat, payload in zip(lat.flats, flats, strict=True):
        rows = fraction_rref(lead_one(arr.forms[i]) for i in flat.indices)
        assert payload["basis"] == [[str(c) for c in row] for row in rows]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.integers(-(10**40), 10**40), st.integers(1, 10**40) | st.integers(1, 12))
def test_the_rational_writer_writes_a_fraction_from_ints(a, p):
    assert _ratio(a, p) == str(Fraction(a, p))


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_blowup_centres_render_as_the_kernel_of_their_span(seed, rational):
    # up to 9 lines with small integer or rational coefficients; a centre is
    # the cross product of its flat's span rows, and QMatrix's kernel vector,
    # scaled to leading entry 1, is the reference
    make = random_rational_arrangement if rational else random_arrangement
    lat = build_lattice(make(Random(seed), 3, 9))
    points = [f for f in lat.of_codim(2) if len(f.indices) >= 3]
    for flat, center in zip(points, blowup_centers(lat), strict=True):
        (kernel,) = QMatrix(flat.span, ncols=3).kernel_basis()
        assert center.render() == "[" + " : ".join(map(str, kernel)) + "]", lat.arrangement.forms
        assert center.lines == flat.indices and math.gcd(*center.coords) == 1


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


def _written(value) -> str:
    """value's JSON as _json writes it, its pieces collected as run() writes them to stdout."""
    pieces = []
    _json(value, pieces.append)
    return "".join(pieces)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_lattice_writer_matches_the_dict_oracle(nvars, seed):
    # up to 8 forms in P^1..P^3 with rational coefficients, so that pivot
    # entries exceed 1, about half of them leaving coordinates unused (A not
    # essential); written as lattice writes its result, as report nests it
    # one level deeper, and both in one output, the same rows at two indents
    lat = build_lattice(random_rational_arrangement(Random(seed), nvars, 8))
    result, oracle = _lattice_payload(lat), lattice_payload(lat)
    assert _written(result) == _dumps(oracle)
    assert _written({"result": {"lattice": result}}) == _dumps({"result": {"lattice": oracle}})
    both = {"lattice": result, "report": {"lattice": result}}
    assert _written(both) == _dumps({"lattice": oracle, "report": {"lattice": oracle}})


def test_empty_arrangement_writes_an_empty_basis_and_no_hyperplanes():
    lat = build_lattice(parse("vars 3\n"))
    written = _written({"result": _lattice_payload(lat)})
    assert written == _dumps({"result": lattice_payload(lat)})
    assert json.loads(written)["result"]["flats"] == [
        {"basis": [], "codim": 0, "hyperplanes": [], "mu": 1}
    ]
    assert '"basis": []' in written and '"hyperplanes": []' in written


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(arrangements(max_forms=7))
def test_flat_spans_are_primitive_integer_rows(arr):
    # that the span's rational rows are the RREF of the flat's forms is the
    # property above
    for f in build_lattice(arr).flats:
        pivots = [next(j for j, a in enumerate(row) if a) for row in f.span]
        assert pivots == sorted(set(pivots)) and len(pivots) == f.codim
        for row, pc in zip(f.span, pivots):
            assert all(type(a) is int for a in row) and math.gcd(*row) == 1 and row[pc] > 0
            assert all(row[other] == 0 for other in pivots if other != pc)


def test_mu_sums_and_size_are_the_flats_and_leave_them_unmade():
    # P^1..P^4 with and without a lineality space, the empty arrangement, one
    # form, rank 2, where the atoms are the level the walk reduces nothing
    # against, and rank 5, where it records three levels of flats below that
    # one: the walk's sums by codim and its count are those of the flats, and
    # chi, the CSM class and the count read them without making the flats
    rng = Random(909)
    arrs = [parse("vars 3\n"), parse("vars 3\n1 2 3\n")]
    arrs += [parse(arrangement_text(3, [[1, 0, 0], [0, 1, 0], [1, -2, 0]]))]
    arrs += [random_rational_arrangement(rng, nvars, 7) for nvars in (2, 3, 4, 5) for _ in range(20)]
    arrs += [random_arrangement(rng, nvars, 7) for nvars in (2, 3, 4, 5) for _ in range(10)]
    seen = set()
    for arr in arrs:
        lat = build_lattice(arr)
        chi, csm, size = char_poly(lat), csm_complement(lat), lat.size()
        if arr.size:
            reduced_char_poly(lat)
        assert "flats" not in vars(lat)
        flats = lat.flats
        assert lat.flats is flats and size == len(flats)
        r = arr.rank()
        assert lat.mu_sums == tuple(sum(f.mu for f in flats if f.codim == c) for c in range(r + 1))
        assert chi == tuple(sum(f.mu for f in flats if f.codim == arr.nvars - k) for k in range(arr.nvars + 1))
        assert csm[-1] == sum(f.mu * (arr.nvars - f.codim) for f in flats if f.codim < arr.nvars)
        seen.add((r, r == arr.nvars))
    assert {(0, False), (1, False), (2, False), (2, True), (3, False), (3, True), (4, True), (5, True)} <= seen


@st.composite
def two_term_and_dense_forms(draw):
    """1 to 4 forms in P^2 or P^3 and a degree d <= 4.

    Each form has two terms, as braid and pencil forms do, or none zero.
    """
    nvars = draw(st.integers(3, 4))
    nonzero = coefficients.filter(bool)

    def two_terms(order, a, b):
        return [a if k == order[0] else b if k == order[1] else 0 for k in range(nvars)]

    two_term = st.builds(two_terms, st.permutations(range(nvars)), nonzero, nonzero)
    dense = st.lists(nonzero, min_size=nvars, max_size=nvars)
    rows = draw(st.lists(two_term, max_size=2)) + draw(st.lists(dense, max_size=2))
    rows = rows or draw(st.lists(two_term, min_size=1, max_size=1))
    return parse(arrangement_text(nvars, rows)), draw(st.sampled_from((4, 3, 2, 1, 0)))


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(two_term_and_dense_forms())
def test_residue_rows_cut_out_the_kernel_of_the_evaluation_rows(case):
    arr, d = case
    monos = monomials_of_degree(arr.nvars, d)
    expected = fraction_kernel(evaluation_rows(arr, d, monos), arr.nvars * len(monos))
    kernel = [dense(v, arr.nvars * len(monos)) for v in _degree_kernel(arr, d, monos)]
    assert kernel == [primitive(v) for v in expected]


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2**32).map(Random), st.sampled_from([(3, 9), (4, 7)]))
def test_the_euler_field_splits_off_one_exponent_1(rng, shape):
    """D(A') = S*theta_E (+) D_0(A') on A' = A.adapted(), whose first form is x_0.

    Walked through degree |A| - 1, its bound, the D_0 walk, which solves
    only the kernels of D_0(A') = {theta_0 = 0} and counts theta_E's
    multiples beside them, describes D(A') as the full walk through |A|
    does: the same dimensions, generator degrees and exit, with theta_E
    its first generator (Orlik & Terao, Prop. 4.27).  On every draw the
    full walk stops by degree |A| - 1.
    """
    nvars, max_forms = shape
    adapted, _ = random_arrangement(rng, nvars, max_forms).adapted()
    n = adapted.projective_dim
    assert adapted.forms[0].coeffs == (1,) + (0,) * n
    assume(n >= 1)  # a rank-1 A: D_0(A') = 0 in P^0, whose search stops at degree 0
    whole = minimal_generators(adapted)
    d0 = minimal_generators(adapted, d0=True)
    assert whole.dimensions == d0.dimensions, adapted.forms
    assert sorted(d0.generator_degrees) == sorted(whole.generator_degrees), adapted.forms
    assert whole.exit_reason == d0.exit_reason
    assert d0.generators[0] == euler_field(n + 1)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(arrangements(max_forms=6).filter(lambda arr: arr.nvars >= 3), st.integers(0, 3))
def test_the_degree_dimension_lies_between_its_two_bounds(arr, d):
    """N - (nonempty rows) <= dim D(A)_d <= N - rank_p(R), for the N columns and rows R solved.

    rank_p(R) <= rank_Q(R), and R has no more rank than nonempty rows;
    where the two bounds meet they are the dimension.
    """
    monos = monomials_of_degree(arr.nvars, d)
    kernel = _degree_kernel(arr, d, monos)
    lower = len(kernel.columns) - sum(1 for row in kernel.rows if row)
    dim = len(list(ModularKernel(kernel.rows, kernel.columns)))
    assert lower <= dim <= kernel.upper
    if d <= 2:
        assert dim == len(fraction_kernel(evaluation_rows(arr, d, monos), arr.nvars * len(monos)))
    if lower == kernel.upper:
        assert dim == kernel.upper
    assert degree_dimension(arr, d) == dim


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2**32).map(Random), st.sampled_from([(3, 8), (4, 6)]))
def test_the_search_equals_the_search_over_whole_kernels(rng, shape):
    """Lifting kernel vectors on demand keeps every dimension, generator and log line.

    Both the full walk and the D_0 walk on A' = A.adapted(), against a
    search that solves each whole kernel and joins every vector in the
    dense integer core.
    """
    arr = random_arrangement(rng, *shape)
    assert minimal_generators(arr) == whole_kernel_search(arr, arr.size + 1), arr.forms
    adapted, _ = arr.adapted()
    d0 = minimal_generators(adapted, d0=True)
    assert d0 == whole_kernel_search(adapted, adapted.size, d0=True), adapted.forms


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2**32).map(Random), st.sampled_from([(3, 8), (4, 6)]), st.booleans())
def test_the_multiples_trailing_columns_leave_the_kernel(rng, shape, d0):
    """At each degree the search drops T, the generator multiples' trailing columns.

    Against fraction_kernel of the unpruned rows, at every degree of the
    full walk, or of the D_0 walk on A' = A.adapted(): T is the last
    nonzero column of each multiple and a free column; the pruned kernel
    is the RREF kernel vectors of the other free columns, in order; and
    dims[d] is the dimension of the whole kernel, with theta_E's
    multiples on the D_0 walk.
    """
    arr = random_rational_arrangement(rng, *shape)
    if d0:
        arr, _ = arr.adapted()
    walked = []
    pruned_kernel = logder._degree_kernel

    def recorded(arr, d, monos, excluded=frozenset()):
        walked.append((d, excluded))
        return pruned_kernel(arr, d, monos, excluded)

    with patch.object(logder, "_degree_kernel", recorded):
        graded = minimal_generators(arr, d0=d0)
    assert [d for d, _ in walked] == list(graded.dimensions)
    for d, excluded in walked:
        monos = monomials_of_degree(arr.nvars, d)
        theta_0 = set(range(len(monos))) if d0 else set()
        trailing = excluded - theta_0
        found = graded.generators[1:] if d0 else graded.generators  # theta_E adds no multiple
        assert theta_0 <= excluded, (arr.forms, d)
        assert trailing == trailing_columns([g for g in found if g.degree < d], d, monos), (arr.forms, d)
        whole = _degree_kernel(arr, d, monos, theta_0)
        columns = whole.columns
        expected = fraction_kernel([[row.get(c, 0) for c in columns] for row in whole.rows], len(columns))
        # each vector's last nonzero entry is the 1 at its free column
        free = [columns[max(i for i, x in enumerate(v) if x)] for v in expected]
        assert trailing <= set(free), (arr.forms, d)
        kept = [
            {columns[i]: a for i, a in enumerate(primitive(v)) if a}
            for fc, v in zip(free, expected) if fc not in trailing
        ]
        assert list(pruned_kernel(arr, d, monos, excluded)) == kept, (arr.forms, d)
        euler = len(monomials_of_degree(arr.nvars, d - 1)) if d0 else 0
        assert graded.dimensions[d] == len(expected) + euler, (arr.forms, d)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2**32).map(Random), st.sampled_from([(2, 4), (3, 8), (4, 7), (5, 6)]))
def test_adapted_coordinates_are_cramers_rule(rng, shape):
    arr = random_rational_arrangement(rng, *shape)
    assert arr.adapted() == cramer_adapted(arr)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_the_independent_forms_are_those_that_raise_the_rank(nvars, seed):
    # the span _independent hands to adapted() and to the lattice's top,
    # against Gauss-Jordan over Fraction; rational forms, so that pivot
    # entries exceed 1
    arr = random_rational_arrangement(Random(seed), nvars, 8)
    forms = [lead_one(f) for f in arr.forms]
    ranks = [len(fraction_rref(forms[:i])) for i in range(arr.size + 1)]
    chosen, span = arr._independent
    assert chosen == tuple(i for i in range(arr.size) if ranks[i + 1] > ranks[i])
    assert rational_rows(dense(span[pc], nvars) for pc in sorted(span)) == fraction_rref(forms)


@st.composite
def arrangements_mod_p(draw):
    """A prime p <= 7 and 0 to 5 forms in P^1 to P^3, many of them with last coefficient 0 mod p.

    On the oracle's fibres, lines in the last coordinate, such a form is
    constant: it vanishes on whole fibres or on none.  A denominator of 2
    or 3, or a form that is 0 mod p, makes p a prime of bad reduction.
    """
    p = draw(st.sampled_from((2, 3, 5, 7)))
    nvars = draw(st.integers(2, 4))
    rare = st.one_of(st.integers(-2, 2).map(lambda k: Fraction(k * p)), st.fractions(-3, 3, max_denominator=3))
    coefficient = _mostly(st.integers(-3, 3).map(Fraction), rare, 8)
    head = st.lists(coefficient, min_size=nvars - 1, max_size=nvars - 1)
    last = st.one_of(coefficient, st.sampled_from((Fraction(0), Fraction(p))))
    form = st.builds(lambda h, c: h + [c], head, last).filter(any)
    return parse(arrangement_text(nvars, draw(st.lists(form, max_size=5)))), p


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(arrangements_mod_p())
def test_point_count_oracle_matches_the_point_by_point_count(case):
    arr, p = case
    expected = reference_point_count(arr, p)
    if expected is None:
        with pytest.raises(BadReductionError):
            point_count_oracle(arr, p)
    else:
        assert point_count_oracle(arr, p) == expected


# Every character the .arr grammar gives a meaning to, and then some.
ARR_ALPHABET = "vars0123456789 +-/._eE#\t\r\n"


def _mostly(common, rare, share: int):
    """common in share of 10 draws, else rare."""
    return st.integers(1, 10).flatmap(lambda k: common if k <= share else rare)


# digits joined by a mark a rational may carry: 3/0, 1e999, 1_0, -.5, ...
numerals = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["", "-", "+"]),
    st.text("0123456789", max_size=4),
    st.sampled_from(["/", "e", "e-", "_", ".", "/-", "", "+"]),
    st.integers(0, 9999).map(str),
)
odd_tokens = _mostly(numerals, st.text(ARR_ALPHABET, min_size=1, max_size=3), 7)
tokens = _mostly(st.fractions(-9, 9, max_denominator=9).map(str), odd_tokens, 8)


@st.composite
def arr_texts(draw):
    """Noise over the .arr alphabet, or a header and rows of tokens that are mostly rationals."""
    if draw(_mostly(st.just(False), st.just(True), 7)):
        return draw(st.text(ARR_ALPHABET, max_size=60))
    nvars = draw(st.integers(0, 4))
    header = draw(_mostly(st.just(str(nvars)), tokens, 8))
    width = _mostly(st.just(nvars), st.integers(0, 5), 8)
    rows = draw(st.lists(width.flatmap(lambda k: st.lists(tokens, min_size=k, max_size=k)), max_size=4))
    return f"vars {header}\n" + "".join(" ".join(r) + "\n" for r in rows)


# 1/2, -0.25, 3e1: what Fraction reads, none of it an integer token alone
rational_tokens = st.one_of(
    st.fractions(-9, 9, max_denominator=9).map(str),
    st.decimals(-9, 9, places=2).map(str),
    st.integers(-9, 9).map("{}e1".format),
)


@st.composite
def rational_token_rows(draw):
    """Rows of 2 to 4 rational tokens, forms in P^1 to P^3, none of them zero."""
    nvars = draw(st.integers(2, 4))
    row = st.lists(rational_tokens, min_size=nvars, max_size=nvars)
    return nvars, draw(st.lists(row.filter(lambda r: any(map(Fraction, r))), max_size=6))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(rational_token_rows())
def test_forms_render_as_their_tokens_over_the_lead(case):
    nvars, rows = case
    expected = {}
    for row in rows:
        values = [Fraction(t) for t in row]
        lead = next(filter(None, values))
        expected.setdefault(tuple(str(v / lead) for v in values), None)
    arr = parse(arrangement_text(nvars, rows))
    assert _arrangement_payload(arr)["forms"] == [list(f) for f in expected]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(arr_texts())
def test_any_text_parses_or_raises_parse_error(text):
    try:
        arr = parse(text)
    except ParseError:
        return
    assert isinstance(arr, Arrangement)


def _formal_class(coeffs):
    return FormalClass(tuple(coeffs))


def _surface_class(coeffs):
    """coeffs are unit, h, pt, then one entry per exceptional curve."""
    unit, h, pt, *exc = coeffs
    return SurfaceClass(unit, h, tuple(exc), pt)


@st.composite
def class_coeffs(draw, constant):
    """A class ring's constructor and its coefficients, the constant term first.

    FormalClass of order 0..6, or SurfaceClass on 0..4 exceptional curves.
    """
    build, size = draw(
        st.sampled_from([(_formal_class, st.integers(1, 7)), (_surface_class, st.integers(3, 7))])
    )
    n = draw(size) - 1
    rest = draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    return build, [draw(constant), *rest]


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(class_coeffs(st.just(1)))
def test_a_class_with_constant_term_1_times_its_inverse_is_one(case):
    build, coeffs = case
    cls = build(coeffs)
    assert cls * cls.inverse() == build([1] + [0] * (len(coeffs) - 1))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(class_coeffs(st.integers(-50, 50).filter(lambda c: c != 1)))
def test_inverse_takes_only_a_constant_term_of_1(case):
    build, coeffs = case
    with pytest.raises(ValueError):
        build(coeffs).inverse()


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(class_coeffs(st.integers(-50, 50)), st.data())
def test_a_fraction_or_float_coefficient_is_refused_at_construction(case, data):
    build, coeffs = case
    i = data.draw(st.integers(0, len(coeffs) - 1))
    coeffs[i] = data.draw(st.one_of(st.fractions(), st.floats(allow_nan=False)))
    with pytest.raises(ValueError):
        build(coeffs)
