from fractions import Fraction
from math import gcd
from pathlib import Path
from random import Random

import pytest

from arrcsm import linalg, logder
from arrcsm.arrangement import parse, parse_file
from arrcsm.logder import (
    InternalError,
    _degree_kernel,
    chern_class_free,
    decide_freeness,
    degree_dimension,
    minimal_generators,
    vector_to_derivation,
)
from arrcsm.linalg import IncrementalSpan, ModularKernel, integer_rows
from arrcsm.poly import monomials_of_degree
from oracles import (
    MultiPoly,
    defining_polynomial,
    dense,
    evaluation_rows,
    fraction_kernel,
    intersection_property_check,
    is_logarithmic,
    is_logarithmic_for_polynomial,
    log_derivation_space,
    poly_det,
    polys,
    primitive,
    reduction_kernel,
    trailing_columns,
)
from property_checks import (
    arrangement_text,
    derivation_to_vector,
    euler_field,
    freeness_of,
    random_rational_arrangement,
    scaled_by_monomial,
)

BOOLEAN = parse("vars 3\n1 0 0\n0 1 0\n0 0 1\n")
THREE_CONC = parse("vars 3\n0 1 0\n0 0 1\n0 1 1\n")
THREE_GENERIC = parse("vars 3\n1 1 0\n0 1 1\n1 0 1\n")
FOUR_GENERIC = parse("vars 3\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n")
NEAR_PENCIL_4 = parse("vars 3\n0 1 0\n0 0 1\n0 1 1\n1 0 0\n")
BRAID = parse("vars 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n1 -1 0 0\n1 0 -1 0\n0 1 -1 0\n")
SINGLE = parse("vars 3\n0 0 1\n")
EMPTY = parse("vars 3\n")
RANK2 = parse("vars 2\n1 0\n0 1\n1 1\n")


def test_euler_derivation():
    e = euler_field(3)
    assert e.degree == 1
    coeffs = polys(e)
    assert coeffs[0] == MultiPoly.linear_form([1, 0, 0])
    q = defining_polynomial(BOOLEAN)
    # Euler applied to a degree-3 homogeneous polynomial gives 3 * it
    applied = sum((c * q.derivative(j) for j, c in enumerate(coeffs)), MultiPoly.zero(3))
    assert applied == q.scale(3)


def test_degree_dimensions_boolean():
    assert degree_dimension(BOOLEAN, 0) == 0
    assert degree_dimension(BOOLEAN, 1) == 3


def test_degree_dimensions_three_concurrent():
    # x0 * d/dx0 is logarithmic here in degree... no: the degree-0 slot is the
    # constant derivation d/dx0, which kills x1, x2 and x1+x2.
    assert degree_dimension(THREE_CONC, 0) == 1
    dims = [degree_dimension(THREE_CONC, d) for d in range(4)]
    assert dims == [1, 4, 10, 19]


def test_basis_members_are_logarithmic():
    for arr in (BOOLEAN, THREE_CONC, FOUR_GENERIC):
        q = defining_polynomial(arr)
        for d in range(3):
            for theta in log_derivation_space(arr, d):
                assert theta.degree == d
                assert is_logarithmic(theta, arr)
                assert is_logarithmic_for_polynomial(theta, q)


def test_vector_round_trip():
    monos = monomials_of_degree(3, 2)
    for theta in log_derivation_space(THREE_CONC, 2):
        vec = primitive(derivation_to_vector(theta, monos))
        again = vector_to_derivation({k: c for k, c in enumerate(vec) if c}, 3, 2, monos)
        assert again == theta


def test_minimal_generators_boolean():
    graded = minimal_generators(BOOLEAN)
    assert graded.generator_degrees == (1, 1, 1)
    assert graded.exit_reason == "complete"
    assert any("degree 1" in line for line in graded.search_log)


def test_minimal_generators_four_generic_overflow():
    graded = minimal_generators(FOUR_GENERIC)
    assert graded.exit_reason in ("overflow", "exhausted")
    assert len(graded.generators) != 3 or sum(graded.generator_degrees) != 4


FREENESS_CASES = [
    (BOOLEAN, True, (1, 1, 1)),
    (THREE_CONC, True, (0, 1, 2)),
    (THREE_GENERIC, True, (1, 1, 1)),
    (FOUR_GENERIC, False, None),
    (NEAR_PENCIL_4, True, (1, 1, 2)),
    (BRAID, True, (0, 1, 2, 3)),
    (SINGLE, True, (0, 0, 1)),
    (RANK2, True, (1, 2)),
]


def test_decide_freeness_frozen():
    for arr, want_free, want_exps in FREENESS_CASES:
        graded = minimal_generators(arr)
        report = decide_freeness(arr, graded)
        assert report.free is want_free, arr.forms
        if want_free:
            assert report.exponents == want_exps
            assert report.saito_scalar != 0
            assert sum(report.exponents) == arr.size
        else:
            assert report.exponents is None
            assert report.reason
        # the report holds the walk it judged, not a copy of its fields
        assert report.search is graded


def test_free_reports_include_euler_slot():
    for arr, want_free, want_exps in FREENESS_CASES:
        if not want_free or arr.size == 0:
            continue
        report = decide_freeness(arr, minimal_generators(arr))
        assert 1 in report.exponents


def test_saito_determinant_rank2():
    # (1, t) lies on a line of the second arrangement for t = 0, 1 and 2, so
    # its scalar is read at t = 3; the third one's second generator is its
    # integer vector over a first entry of 2, so c needs that division
    for arr in (RANK2, parse("vars 2\n0 1\n1 -1\n2 -1\n"), parse("vars 2\n1 -2\n0 1\n1 1\n")):
        report = decide_freeness(arr, minimal_generators(arr))
        assert report.free
        mat = [list(polys(theta)) for theta in report.search.generators]
        det = poly_det(mat)
        q = defining_polynomial(arr)
        assert det == q.scale(report.saito_scalar)


def test_saito_scalar_vanishes_on_dependent_generators():
    # three logarithmic fields of degrees summing to |A| that span a rank-2
    # module: det M(theta) is 0, so c is 0 and they certify nothing
    graded = minimal_generators(BOOLEAN)
    g0, g1, _ = graded.generators
    report = decide_freeness(BOOLEAN, graded._replace(generators=(g0, g1, g1)))
    assert not report.free
    assert report.reason == "Saito determinant vanishes"


def test_saito_rejects_degenerate_generators():
    # Replace one generator by a monomial multiple of another: the resulting
    # tuple is still made of logarithmic derivations, but the determinant
    # collapses to zero, so it no longer certifies freeness.
    report = decide_freeness(BOOLEAN, minimal_generators(BOOLEAN))
    _, g1, g2 = report.search.generators
    fake = scaled_by_monomial(g1, (1, 0, 0))
    assert is_logarithmic(fake, BOOLEAN)
    mat = [list(polys(fake)), list(polys(g1)), list(polys(g2))]
    assert poly_det(mat) == MultiPoly.zero(3)


def test_chern_class_free_frozen():
    assert chern_class_free(freeness_of(THREE_CONC)) == (1, 0, -1)
    assert chern_class_free(freeness_of(BOOLEAN)) == (1, 0, 0)
    assert chern_class_free(freeness_of(SINGLE)) == (1, 2, 1)
    assert chern_class_free(freeness_of(NEAR_PENCIL_4)) == (1, -1, 0)


def test_chern_class_free_errors():
    with pytest.raises(ValueError):
        chern_class_free(freeness_of(FOUR_GENERIC))
    with pytest.raises(InternalError):
        chern_class_free(freeness_of(EMPTY))


def test_intersection_property_single():
    for d in range(4):
        assert intersection_property_check(SINGLE, d)


def test_intersection_property_examples():
    for arr in (BOOLEAN, THREE_CONC, FOUR_GENERIC):
        for d in range(3):
            assert intersection_property_check(arr, d)


CORPUS = Path(__file__).resolve().parents[1] / "corpus"
INPUTS = Path(__file__).resolve().parent / "inputs"


def test_search_without_the_modular_kernel(monkeypatch):
    # the full walk and the D_0 walk of each input, with every lift failing:
    # in tests/inputs the span rejects kernel vectors, one in each full walk
    # of d4 and ziegler_conic and four in d4's D_0 walk
    corpus = [parse_file(path) for path in sorted(CORPUS.glob("*.arr"))]
    arrs = corpus + [parse_file(path) for path in sorted(INPUTS.glob("*.arr"))]
    adapted = [arr.adapted()[0] for arr in arrs]
    rejected = []

    class CountedSpan(logder.IncrementalSpan):
        def add(self, v):
            residue = super().add(v)
            rejected.append(residue is None)
            return residue

    def walks():
        return ([minimal_generators(arr) for arr in arrs],
                [minimal_generators(a, d0=True) for a in adapted])

    monkeypatch.setattr(logder, "IncrementalSpan", CountedSpan)
    modular = walks()
    monkeypatch.setattr(linalg.ModularKernel, "_lifted", lambda self, fc: None)
    rejected.clear()
    assert walks() == modular
    assert sum(rejected) == 6
    for arr in corpus:
        for d in range(4):
            monos = monomials_of_degree(arr.nvars, d)
            kernel = [dense(v, arr.nvars * len(monos)) for v in _degree_kernel(arr, d, monos)]
            assert kernel == [primitive(v) for v in reduction_kernel(arr, d)], (arr.name, d)


@pytest.mark.parametrize("fallback", [False, True])
def test_search_vectors_are_primitive_integer_vectors(monkeypatch, fallback):
    if fallback:
        monkeypatch.setattr(linalg.ModularKernel, "_lifted", lambda self, fc: None)

    def check(vectors):
        assert vectors
        for v in vectors:
            assert type(v) is dict and all(type(x) is int and x for x in v.values())
            assert list(v) == sorted(v)
            assert gcd(*v.values()) == 1 and next(iter(v.values())) > 0

    arr = parse_file(CORPUS / "near_pencil_5.arr")
    for d in range(1, 4):
        monos = monomials_of_degree(arr.nvars, d)
        kernel = list(_degree_kernel(arr, d, monos))
        check(kernel)
        span = IncrementalSpan(arr.nvars * len(monos))
        check([residue for v in kernel if (residue := span.add(v)) is not None])
    rows = integer_rows([[Fraction(1, 2), 3, 0, -1], [0, 2, 4, Fraction(2, 3)]])
    check(list(ModularKernel(rows, range(4))))


def test_kernel_entries_past_the_lift_bound_take_the_fallback(monkeypatch):
    # D(A)_3 of these planes has kernel entries of 38 bits, past the 30 bits
    # that rational reconstruction mod 2^61 - 1 can lift
    arr = parse("vars 4\n1 -2/3 4/9 0\n1 -6 6 0\n1 1/2 1/2 -3/2\n1 0 1 -1/2\n")
    kernels = []

    class RecordedKernel(logder.ModularKernel):
        def __init__(self, *args):
            kernels.append(self)
            super().__init__(*args)

    monkeypatch.setattr(logder, "ModularKernel", RecordedKernel)
    space = log_derivation_space(arr, 3)
    (kernel,) = kernels
    assert kernel._exact is not None
    rows, ncols = kernel.rows, len(kernel.columns)
    monos = monomials_of_degree(arr.nvars, 3)
    vectors = [derivation_to_vector(theta, monos) for theta in space]
    assert vectors == fraction_kernel([dense(row, ncols) for row in rows], ncols)
    assert max(x.numerator.bit_length() for v in vectors for x in v) > 30


def test_multiples_that_fill_a_degree_take_no_kernel_vector(monkeypatch):
    near_pencil_5 = parse_file(CORPUS / "near_pencil_5.arr")
    unpruned = _degree_kernel(near_pencil_5, 2, monomials_of_degree(3, 2))
    kernels, spans, lifts = [], [], []
    lifted = linalg.ModularKernel._lifted

    class RecordedKernel(logder.ModularKernel):
        def __init__(self, rows, columns):
            kernels.append(self)
            super().__init__(rows, columns)

    class RecordedSpan(logder.IncrementalSpan):
        def __init__(self, dim):
            spans.append(self)
            super().__init__(dim)

    def counted(self, fc):
        lifts.append(kernels.index(self))
        return lifted(self, fc)

    monkeypatch.setattr(logder, "ModularKernel", RecordedKernel)
    monkeypatch.setattr(logder, "IncrementalSpan", RecordedSpan)
    monkeypatch.setattr(linalg.ModularKernel, "_lifted", counted)
    graded = minimal_generators(near_pencil_5)
    assert graded.generator_degrees == (1, 1, 3)
    # degree 2: the 6 multiples of the two linear generators span D(A)_2, of
    # dim 6.  Their 6 trailing columns leave the kernel, whose upper bound
    # is then 0, so the span reaches 6 + 0 with no kernel vector lifted
    assert len(unpruned.columns) - len(kernels[2].columns) == 6
    assert graded.dimensions[2] == spans[2].rank == 6
    assert kernels[2].upper == 0
    assert 2 not in lifts and {1, 3} <= set(lifts)


def test_the_pruned_kernel_is_the_whole_one_less_the_trailing_columns():
    # near_pencil_6 is free with exponents 1, 1, 4.  Past degree 1 the
    # multiples of the generators found so far drop their trailing columns
    # T from the kernel: those are free columns of the whole kernel, whose
    # other vectors the pruned kernel keeps, in order, and
    # degree_dimension, given the generators, counts |T| + the rest
    near_pencil_6 = parse_file(CORPUS / "near_pencil_6.arr")
    gens = minimal_generators(near_pencil_6).generators
    assert [g.degree for g in gens] == [1, 1, 4]
    sizes = []
    for d in range(8):
        monos = monomials_of_degree(3, d)
        earlier = [g for g in gens if g.degree < d]
        trailing = trailing_columns(earlier, d, monos)
        whole = list(_degree_kernel(near_pencil_6, d, monos))
        pruned = _degree_kernel(near_pencil_6, d, monos, trailing)
        assert trailing <= {max(v) for v in whole}
        assert list(pruned) == [v for v in whole if max(v) not in trailing]
        assert len(whole) == len(trailing) + pruned.upper == degree_dimension(near_pencil_6, d, gens)
        sizes.append((len(trailing), pruned.upper))
    # (|T|, the pruned upper): the degree-4 generator adds its multiples from degree 5
    assert sizes == [(0, 0), (0, 2), (6, 0), (12, 0), (20, 1), (30, 3), (42, 6), (56, 10)]


def test_mod_p_rank_drop_keeps_the_exact_span(monkeypatch):
    # Four lines through (c : 1 : 0), c = 2^61 - 1, and x0 = 0.  The linear
    # generators carry 1/c, and so do the residue rows: they lose rank mod c,
    # so N - rank_p(R) exceeds dim D(A)_d at every degree.  The exact span
    # stays below that bound, the first lift fails, and the integer core
    # gives each dimension.
    c = 2**61 - 1
    arr = parse(f"vars 3\n0 0 1\n1 {-c} 0\n1 {-c} 1\n1 {-c} -1\n1 0 0\n")
    spans = []

    class RecordedSpan(logder.IncrementalSpan):
        def __init__(self, dim):
            spans.append(dim)
            super().__init__(dim)

    monkeypatch.setattr(logder, "IncrementalSpan", RecordedSpan)
    graded = minimal_generators(arr)
    assert graded.search_log[2] == "degree 2: dim 6, 0 new generator(s), total 2"
    assert [graded.dimensions[d] for d in range(4)] == [0, 2, 6, 13]
    assert spans == [3 * 1, 3 * 3, 3 * 6, 3 * 10]


def test_a_full_span_takes_no_more_kernel_vectors(monkeypatch):
    # nine lines through a point and a transversal, in coordinates adapted to
    # them: exponents 1, 1, 8.  At degree 8 the 72 multiples of the linear
    # generators are independent and dim D(A)_8 = 73.  Their 72 trailing
    # columns leave the kernel, so one kernel vector fills the span, and the
    # 72 vectors of those columns are never made
    arr, _ = parse(arrangement_text(3, [[0, 1, t] for t in range(9)] + [[1, 0, 0]])).adapted()
    monos = monomials_of_degree(3, 8)
    linear = [g for g in minimal_generators(arr).generators if g.degree == 1]
    trailing = trailing_columns(linear, 8, monos)
    assert len(trailing) == 72
    ncols = len(_degree_kernel(arr, 8, monos, trailing).columns)
    assert ncols == len(_degree_kernel(arr, 8, monos).columns) - 72
    adds, lifts = {}, {}

    class CountedSpan(logder.IncrementalSpan):
        def add(self, v):
            adds[self.dim] = adds.get(self.dim, 0) + 1
            return super().add(v)

    lifted = linalg.ModularKernel._lifted

    def counted(self, fc):
        lifts[len(self.columns)] = lifts.get(len(self.columns), 0) + 1
        return lifted(self, fc)

    monkeypatch.setattr(logder, "IncrementalSpan", CountedSpan)
    monkeypatch.setattr(linalg.ModularKernel, "_lifted", counted)
    graded = minimal_generators(arr)
    assert graded.generator_degrees == (1, 1, 8)
    assert graded.dimensions[8] == 73
    assert adds[3 * 45] == 73 and lifts[ncols] == 1
    # a span that never reports its rank takes, and lifts, every kernel
    # vector, to the same end: the one vector of the pruned kernel
    monkeypatch.setattr(CountedSpan, "rank", -1)
    adds.clear()
    lifts.clear()
    assert minimal_generators(arr) == graded
    assert adds[3 * 45] == 72 + 1 and lifts[ncols] == 1


def test_exhausted_walk_names_only_the_degrees_it_searched():
    # a walk on roots that miss a generator degree steps through every
    # degree to its bound, and ends exhausted.  near_pencil_5 is free with
    # exponents 1, 1, 3
    near_pencil_5 = parse_file(CORPUS / "near_pencil_5.arr")
    graded = minimal_generators(near_pencil_5, roots=(1,))
    assert graded.exit_reason == "exhausted"
    assert graded.search_log[-1] == "search exhausted degrees 0..5"
    assert sorted(graded.dimensions) == [0, 1, 2, 3, 4, 5]
    assert graded.generator_degrees == (1, 1)
    report = decide_freeness(near_pencil_5, graded)
    assert report.reason == "found 2 minimal generators through degree 5, expected 3"
    assert report.verdict == f"not free: {report.reason}" and report.search is graded
    # the D_0 walk ends at |A| - 1, and the reason names that degree, not |A|
    adapted, _ = near_pencil_5.adapted()
    graded = minimal_generators(adapted, roots=(1,), d0=True)
    assert graded.search_log[-1] == "search exhausted degrees 0..4"
    assert decide_freeness(adapted, graded).reason == "found 2 minimal generators through degree 4, expected 3"
    # three generators by degree 3, but their degrees sum past |A| = 6; the
    # full walk overflows at degree 4
    sum_past = parse("vars 3\n2 -1 0\n-1 1 -1\n-1 2 -1\n0 1 0\n2 0 -1\n1 1 -1\n")
    graded = minimal_generators(sum_past, roots=(1, 3))
    assert graded.exit_reason == "exhausted"
    assert graded.search_log[-1] == "search exhausted degrees 0..6"
    report = decide_freeness(sum_past, graded)
    assert report.reason == "generator degrees (1, 3, 3) sum to 7, not 6"
    assert (report.free, report.exponents, report.saito_scalar) == (False, None, None)
    assert report.verdict == f"not free: {report.reason}" and report.search is graded
    assert minimal_generators(sum_past).exit_reason == "overflow"
    # a free verdict names Saito's scalar
    graded = minimal_generators(near_pencil_5)
    report = decide_freeness(near_pencil_5, graded)
    assert report.free and report.reason is None and report.search is graded
    assert report.verdict == f"free: Saito determinant = {report.saito_scalar} * defining polynomial"


@pytest.mark.parametrize(
    "text,exponents",
    [
        # no forms: the D_0 walk would search no degree, and Saito's check fail on it
        ("vars 3\n", (0, 0, 0)),
        # the D_0 walk would end exhausted with degrees (1, 1, 2) and say not free
        ("vars 3\n1 1 0\n0 1 0\n0 0 1\n", (1, 1, 1)),
    ],
    ids=["no_forms", "x_plus_y_first"],
)
def test_the_d0_walk_needs_x0_as_the_first_form(text, exponents):
    arr = parse(text)
    with pytest.raises(ValueError, match="d0 needs x_0 as the first form"):
        minimal_generators(arr, d0=True)
    report = decide_freeness(arr, minimal_generators(arr))
    assert (report.free, report.exponents) == (True, exponents)


def test_a_two_term_form_puts_one_entry_per_column(monkeypatch):
    # on x_i - x_j = 0, x_i is x_j: every power of the substitute has one
    # term, so each kept column (k, m) with k in {i, j} has one entry in the
    # rows of that form, whatever the degree
    seen = []

    class RecordedKernel(logder.ModularKernel):
        def __init__(self, rows, columns):
            seen.append((rows, columns))
            super().__init__(rows, columns)

    monkeypatch.setattr(logder, "ModularKernel", RecordedKernel)
    for d in range(6):
        monos = monomials_of_degree(BRAID.nvars, d)
        per = len(monos)
        _degree_kernel(BRAID, d, monos)
        rows, columns = seen.pop()
        # the coordinate hyperplanes x0, x1, x2 keep only (k, m) with x_k | m,
        # each at its column k * per + (the index of m)
        assert columns == [k * per + t for k in range(4) for t, m in enumerate(monos) if k == 3 or m[k]]
        per_form = len(monomials_of_degree(3, d))
        assert len(rows) == 3 * per_form
        for f, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
            entries = [c for row in rows[f * per_form:(f + 1) * per_form] for c in row]
            assert sorted(entries) == [c for c in columns if c // per in (i, j)]


def _with_coordinate_hyperplanes(rng):
    nvars = rng.choice([2, 3, 4])
    base = random_rational_arrangement(rng, nvars, 6 - nvars)
    picked = rng.sample(range(nvars), rng.randint(1, nvars))
    coordinates = [[int(j == i) for j in range(nvars)] for i in picked]
    rows = coordinates + [[str(c) for c in f.coeffs] for f in base.forms]
    rng.shuffle(rows)
    return parse(arrangement_text(nvars, rows))


def test_coordinate_hyperplanes_add_no_rows_and_keep_the_kernel(monkeypatch):
    # the kernel of all the evaluation rows, by a plain Fraction Gauss
    rng = Random(5)
    arrs = [parse_file(path) for path in sorted(CORPUS.glob("*.arr"))]
    arrs += [_with_coordinate_hyperplanes(rng) for _ in range(12)]
    seen = []

    class RecordedKernel(logder.ModularKernel):
        def __init__(self, rows, columns):
            seen.append((len(rows), len(columns)))
            super().__init__(rows, columns)

    monkeypatch.setattr(logder, "ModularKernel", RecordedKernel)
    for arr in arrs:
        coordinates = [f for f in arr.forms if sum(map(bool, f.coeffs)) == 1]
        for d in range(5):
            monos = monomials_of_degree(arr.nvars, d)
            ncols = arr.nvars * len(monos)
            expected = fraction_kernel(evaluation_rows(arr, d, monos), ncols)
            kernel = [dense(v, ncols) for v in _degree_kernel(arr, d, monos)]
            assert kernel == [primitive(v) for v in expected], (arr.forms, d)
            # no rows from x_j, and none of its columns (j, m) with x_j not dividing m
            free_of_pivot = len(monomials_of_degree(arr.nvars - 1, d))
            assert seen.pop() == (
                (arr.size - len(coordinates)) * free_of_pivot,
                ncols - len(coordinates) * free_of_pivot,
            )

