from fractions import Fraction
from pathlib import Path

import pytest

from arrcsm import chow
from arrcsm.arrangement import parse, parse_file
from arrcsm.chow import (
    BlowupRoute,
    FormalClass,
    Route,
    SingularPoint,
    SurfaceClass,
    blowup_centers,
    blowup_chern_snc,
    projection_check,
    pushforward_to_p2,
    tjurina_route,
    verify_arrangement,
    verify_pencil_identity,
    verify_pencil_koszul,
)
from arrcsm.lattice import build_lattice, csm_complement
from arrcsm.logder import InternalError
from property_checks import freeness_of, verify

BOOLEAN = parse("vars 3\n1 0 0\n0 1 0\n0 0 1\n", name="boolean")
THREE_CONC = parse("vars 3\n0 1 0\n0 0 1\n0 1 1\n", name="three_concurrent")
FOUR_GENERIC = parse("vars 3\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n", name="four_generic")
TWO_LINES = parse("vars 3\n0 1 0\n0 0 1\n", name="two_lines")
SINGLE = parse("vars 3\n0 0 1\n", name="single")
EMPTY = parse("vars 3\n", name="empty")
BRAID = parse(
    "vars 3\n1 0 0\n0 1 0\n0 0 1\n1 -1 0\n1 0 -1\n0 1 -1\n", name="braid"
)
TETRAHEDRON = parse("vars 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n", name="tetra")
CORPUS = Path(__file__).resolve().parents[1] / "corpus"


def test_formal_class_construction():
    f = FormalClass.make([1, 2], 3)
    assert f.coeffs == (1, 2, 0, 0)
    assert f.order == 3
    assert FormalClass.make([1, 2, 3, 4, 5], 2).coeffs == (1, 2, 3)
    assert FormalClass.one(2).coeffs == (1, 0, 0)
    assert FormalClass.x(2).coeffs == (0, 1, 0)


def test_formal_class_arithmetic():
    one = FormalClass.one(2)
    x = FormalClass.x(2)
    assert (one + x).coeffs == (1, 1, 0)
    assert (one - x).coeffs == (1, -1, 0)
    assert ((one + x) * (one + x)).coeffs == (1, 2, 1)
    assert (3 * x).coeffs == (0, 3, 0)


def test_formal_class_inverse():
    one = FormalClass.one(2)
    x = FormalClass.x(2)
    inv = (one + x).inverse()
    assert inv.coeffs == (1, -1, 1)
    assert (inv * (one + x)) == one
    with pytest.raises(ValueError):
        x.inverse()


def test_formal_class_int_vector_and_render():
    assert FormalClass.make([1, -3, 5], 2).coeffs == (1, -3, 5)
    with pytest.raises(ValueError):
        FormalClass.make([Fraction(1, 2)], 1)
    assert FormalClass.make([1, -3, 5], 2).render() == "1 - 3*X + 5*X^2"
    assert FormalClass.make([0], 1).render() == "0"


@pytest.mark.parametrize("coeffs", [(1, Fraction(1, 2)), (1.0, 0), (True, 0)])
def test_formal_class_rejects_non_int_entries(coeffs):
    # bool is not an int here
    with pytest.raises(ValueError) as err:
        FormalClass(coeffs)
    assert str(err.value) == f"{coeffs} is not an integer class"


def test_formal_class_order_mismatch():
    with pytest.raises(ValueError):
        FormalClass.one(2) + FormalClass.one(3)


def test_pencil_identity_frozen():
    equal, csm_side, chern_side = verify_pencil_identity(3, 2)
    assert equal
    assert csm_side.coeffs == (1, -3, 5)
    assert chern_side.coeffs == (1, -3, 5)
    equal2, _, chern2 = verify_pencil_identity(2, 2)
    assert equal2
    assert chern2.coeffs == (1, -2, 3)


def test_pencil_identity_range():
    for m in range(2, 7):
        for n in range(5):
            equal, _, _ = verify_pencil_identity(m, n)
            assert equal, (m, n)


def test_pencil_identity_validation():
    with pytest.raises(ValueError):
        verify_pencil_identity(1, 2)
    with pytest.raises(ValueError):
        verify_pencil_identity(3, -1)
    with pytest.raises(ValueError):
        verify_pencil_koszul(1, 2)
    with pytest.raises(ValueError):
        verify_pencil_koszul(3, 101)


def test_pencil_koszul_frozen():
    ok, twisted = verify_pencil_koszul(3, 2)
    assert ok
    assert twisted.coeffs == (1, 0, -4)
    for m in range(2, 7):
        for n in range(5):
            ok, _ = verify_pencil_koszul(m, n)
            assert ok, (m, n)


def test_projection_check_frozen():
    chk = projection_check(1, 1, 2)
    assert chk.structure_pushed == (0, 1, 0)
    assert chk.structure_capped == (0, 1, 1)
    assert not chk.structure_equal
    assert chk.transverse_pushed == (0, 1, 1)
    assert chk.transverse_capped == (0, 1, 1)
    assert chk.transverse_equal
    assert chk.as_expected

    chk2 = projection_check(2, 1, 2)
    assert chk2.structure_pushed == (0, 2, 0)
    assert chk2.structure_capped == (0, 2, 4)
    assert chk2.transverse_pushed == (0, 2, 2)
    assert chk2.as_expected

    chk3 = projection_check(1, 2, 3)
    assert chk3.transverse_pushed == (0, 1, 2, 4)
    assert chk3.transverse_capped == (0, 1, 2, 4)
    assert chk3.as_expected


def test_projection_check_validation():
    with pytest.raises(ValueError):
        projection_check(0, 1, 2)
    with pytest.raises(ValueError):
        projection_check(1, 1, 1)


def test_surface_class_intersection_form():
    h = SurfaceClass.make(0, 1, (0,), 0)
    e = SurfaceClass.make(0, 0, (1,), 0)
    pt = SurfaceClass.make(0, 0, (0,), 1)
    assert h * h == pt
    assert e * e == SurfaceClass.make(0, 0, (0,), -1)
    assert h * e == SurfaceClass.make(0, 0, (0,), 0)
    assert pt * pt == SurfaceClass.make(0, 0, (0,), 0)
    assert pt * h == SurfaceClass.make(0, 0, (0,), 0)


@pytest.mark.parametrize(
    "unit,h,exc,pt",
    [(1, Fraction(1), (), 0), (1, 0, (0, 0.5), 0), (True, 0, (), 0), (1, 0, (0,), Fraction(1, 2))],
)
def test_surface_class_rejects_non_int_entries(unit, h, exc, pt):
    with pytest.raises(ValueError) as err:
        SurfaceClass(unit, h, exc, pt)
    record = f"SurfaceClass(unit={unit!r}, h={h!r}, exc={exc!r}, pt={pt!r})"
    assert str(err.value) == f"{record} is not an integer class"


def test_surface_class_inverse():
    one_plus_e = SurfaceClass.make(1, 0, (1,), 0)
    inv = one_plus_e.inverse()
    assert inv == SurfaceClass.make(1, 0, (-1,), -1)
    assert one_plus_e * inv == SurfaceClass.make(1, 0, (0,), 0)

    one_plus_h = SurfaceClass.make(1, 1, (), 0)
    cube = one_plus_h * one_plus_h * one_plus_h
    assert cube == SurfaceClass.make(1, 3, (), 3)
    assert cube.inverse() == SurfaceClass.make(1, -3, (), 6)

    with pytest.raises(ValueError):
        SurfaceClass.make(0, 1, (), 0).inverse()


def test_surface_class_mismatch():
    with pytest.raises(ValueError):
        SurfaceClass.make(1, 0, (0,), 0) * SurfaceClass.make(1, 0, (), 0)


def test_pushforward_and_pullback():
    # a P^2 class pulled back to the 2-point blow-up has no exceptional part
    pulled_back = SurfaceClass.make(1, 2, (0, 0), 3)
    assert pushforward_to_p2(pulled_back) == (1, 2, 3)
    assert pushforward_to_p2(SurfaceClass.make(1, 2, (5, -1), 3)) == (1, 2, 3)
    with pytest.raises(ValueError):
        SurfaceClass.make(Fraction(1, 2), 0, (), 0)


def test_singular_points_three_concurrent():
    pts = blowup_centers(build_lattice(THREE_CONC))
    assert len(pts) == 1
    (p,) = pts
    assert p.multiplicity == 3
    assert p.lines == (0, 1, 2)
    assert p.coords == (1, 0, 0)
    assert p.render() == "[1 : 0 : 0]"


def test_singular_points_counts():
    # only points where three or more lines meet are blow-up centres
    assert blowup_centers(build_lattice(BOOLEAN)) == ()
    braid_pts = blowup_centers(build_lattice(BRAID))
    assert [p.multiplicity for p in braid_pts] == [3, 3, 3, 3]
    with pytest.raises(ValueError):
        blowup_centers(build_lattice(TETRAHEDRON))


def test_blowup_centers_raise_internal_error_on_a_flat_that_is_not_a_point():
    # a codim-2 flat whose two span rows are one line: their cross product is 0
    lat = build_lattice(THREE_CONC)
    (point,) = lat.of_codim(2)
    lat.flats = (point._replace(span=(point.span[0],) * 2),)
    with pytest.raises(InternalError, match="^internal consistency failure: codim-2 flat is not a point$"):
        blowup_centers(lat)


def test_blowup_three_concurrent_frozen():
    route = blowup_chern_snc(build_lattice(THREE_CONC))
    assert len(route.centers) == 1
    assert route.cls == SurfaceClass.make(1, 0, (1,), -1)
    assert pushforward_to_p2(route.cls) == (1, 0, -1)


def test_blowup_no_centers():
    route = blowup_chern_snc(build_lattice(BOOLEAN))
    assert route.centers == ()
    assert pushforward_to_p2(route.cls) == (1, 0, 0)
    single = blowup_chern_snc(build_lattice(SINGLE))
    assert pushforward_to_p2(single.cls) == (1, 2, 1)


def test_blowup_braid():
    route = blowup_chern_snc(build_lattice(BRAID))
    assert len(route.centers) == 4
    assert pushforward_to_p2(route.cls) == (1, -3, 2)


def test_tjurina_route_frozen():
    assert tjurina_route(build_lattice(TWO_LINES)) == (1, 1, 0)
    assert tjurina_route(build_lattice(THREE_CONC)) == (1, 0, -1)
    assert tjurina_route(build_lattice(FOUR_GENERIC)) == (1, -1, 1)
    assert tjurina_route(build_lattice(SINGLE)) == (1, 2, 1)
    with pytest.raises(ValueError):
        tjurina_route(build_lattice(EMPTY))
    with pytest.raises(ValueError):
        tjurina_route(build_lattice(TETRAHEDRON))


class _NoBlowupRing:
    """Stands in for SurfaceClass: any use of the blow-up ring fails."""

    def __getattr__(self, name):
        raise AssertionError(f"SurfaceClass.{name} used outside the blow-up route")

    def __call__(self, *args, **kwargs):
        raise AssertionError("SurfaceClass used outside the blow-up route")


def test_tjurina_route_computes_in_the_formal_ring(monkeypatch):
    # Tjurina and blow-up are compared with each other, so they share no class ring
    monkeypatch.setattr(chow, "SurfaceClass", _NoBlowupRing())
    checked = 0
    for path in sorted(CORPUS.glob("*.arr")):
        arr = parse_file(path)
        if arr.nvars == 3 and arr.size:
            lat = build_lattice(arr)
            assert tjurina_route(lat) == csm_complement(lat), path.name
            checked += 1
    assert checked >= 9


def test_only_the_blowup_route_carries_evidence():
    for path in sorted(CORPUS.glob("*.arr")):
        lat = build_lattice(parse_file(path))
        routes = verify_arrangement(lat, freeness_of(lat.arrangement)).routes
        assert [r.name for r in routes] == ["lattice_csm", "exponent_product", "tjurina", "blowup_pushforward"]
        assert [r.evidence for r in routes[:3]] == [None] * 3, path.name
        assert routes[3].evidence == (None if routes[3].vector is None else blowup_chern_snc(lat)), path.name


def test_verify_three_concurrent():
    vr = verify(THREE_CONC)
    blowup = BlowupRoute(SurfaceClass(1, 0, (1,), -1), (SingularPoint((1, 0, 0), 3, (0, 1, 2)),))
    assert vr.routes == (
        Route("lattice_csm", (1, 0, -1), None, None),
        Route("exponent_product", (1, 0, -1), None, None),
        Route("tjurina", (1, 0, -1), None, None),
        Route("blowup_pushforward", (1, 0, -1), None, blowup),
    )
    assert vr.passed
    assert len(vr.agreements) == 6
    assert all(ok for _, _, ok in vr.agreements)
    assert vr.freeness.free


def test_verify_four_generic_not_free():
    vr = verify(FOUR_GENERIC)
    assert vr.routes == (
        Route("lattice_csm", (1, -1, 1), None, None),
        Route("exponent_product", None, "exponent route skipped: not free", None),
        Route("tjurina", (1, -1, 1), None, None),
        Route("blowup_pushforward", (1, -1, 1), None, BlowupRoute(SurfaceClass(1, -1, (), 1), ())),
    )
    assert vr.passed
    assert [(a, b) for a, b, _ in vr.agreements] == [
        ("lattice_csm", "tjurina"), ("lattice_csm", "blowup_pushforward"), ("tjurina", "blowup_pushforward"),
    ]


def test_verify_empty():
    vr = verify(EMPTY)
    surface = "surface routes skipped: empty arrangement"
    assert vr.routes == (
        Route("lattice_csm", (1, 3, 3), None, None),
        Route("exponent_product", None, "exponent route skipped: empty arrangement has no Euler slot", None),
        Route("tjurina", None, surface, None),
        Route("blowup_pushforward", None, surface, None),
    )
    assert vr.passed
    assert vr.agreements == ()


def test_verify_higher_dimension():
    vr = verify(TETRAHEDRON)
    surface = "surface routes skipped: not a line arrangement in P^2"
    assert vr.routes == (
        Route("lattice_csm", (1, 0, 0, 0), None, None),
        Route("exponent_product", (1, 0, 0, 0), None, None),
        Route("tjurina", None, surface, None),
        Route("blowup_pushforward", None, surface, None),
    )
    assert vr.passed
    assert vr.agreements == (("lattice_csm", "exponent_product", True),)


def test_routes_agree_with_csm():
    for arr in (BOOLEAN, THREE_CONC, FOUR_GENERIC, BRAID):
        lat = build_lattice(arr)
        vr = verify_arrangement(lat, freeness_of(arr))
        assert vr.routes[0] == ("lattice_csm", csm_complement(lat), None, None)
        assert vr.passed


def test_verify_reuses_precomputed_inputs(monkeypatch):
    def refuse(*args):
        raise AssertionError("recomputed a stage that was passed in")

    for arr in (THREE_CONC, FOUR_GENERIC, TETRAHEDRON):
        lat, freeness = build_lattice(arr), freeness_of(arr)
        fresh = verify(arr)
        with monkeypatch.context() as m:
            m.setattr("arrcsm.lattice.build_lattice", refuse)
            m.setattr("arrcsm.logder.minimal_generators", refuse)
            m.setattr("arrcsm.logder.decide_freeness", refuse)
            assert verify_arrangement(lat, freeness) == fresh
