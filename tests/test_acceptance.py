"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they print.  Every check is exact integer arithmetic; the only stated
tolerances are wall-clock budgets.
"""

import time
from pathlib import Path
from random import Random

from arrcsm.arrangement import parse_file
from arrcsm.chow import (
    SurfaceClass,
    blowup_chern_snc,
    projection_check,
    pushforward_to_p2,
    verify_pencil_identity,
    verify_pencil_koszul,
)
from arrcsm.lattice import (
    build_lattice,
    char_poly,
    point_count_oracle,
    poly_eval_int,
    reduced_char_poly,
)
from arrcsm.arrangement import parse
from oracles import defining_polynomial, poly_det, poly_from_roots, polys
from property_checks import (
    euler_membership,
    freeness_of,
    intersection_der,
    kernel_rank_exactness,
    mobius_alternation,
    reduction_invariance,
    verify,
)

CORPUS = Path(__file__).resolve().parents[1] / "corpus"

EXPECTED_CLASS = {
    "boolean_triangle": (1, 0, 0),
    "braid_essential": (1, -3, 2),
    "four_generic": (1, -1, 1),
    "generic5_p3": (1, -1, 1, -1),
    "near_pencil_4": (1, -1, 0),
    "near_pencil_5": (1, -2, 0),
    "near_pencil_6": (1, -3, 0),
    "tetrahedron_p3": (1, 0, 0, 0),
    "three_concurrent": (1, 0, -1),
    "three_generic": (1, 0, 0),
    "two_lines": (1, 1, 0),
}

EXPECTED_FREENESS = {
    "boolean_triangle": (1, 1, 1),
    "braid_essential": (1, 2, 3),
    "four_generic": None,
    "generic5_p3": None,
    "near_pencil_4": (1, 1, 2),
    "near_pencil_5": (1, 1, 3),
    "near_pencil_6": (1, 1, 4),
    "tetrahedron_p3": (1, 1, 1, 1),
    "three_concurrent": (0, 1, 2),
    "three_generic": (1, 1, 1),
    "two_lines": (0, 1, 1),
}


def _corpus():
    return {p.stem: parse_file(p) for p in sorted(CORPUS.glob("*.arr"))}


def _report(num: int, failures: list[str], detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num}: {status} {detail}")
    assert not failures, "; ".join(failures)


def test_criterion_01_pencil_identity():
    failures = []
    t0 = time.perf_counter()
    for m in range(2, 11):
        for n in range(7):
            equal, csm_side, chern_side = verify_pencil_identity(m, n)
            if not equal:
                failures.append(f"m={m} n={n}: {csm_side.render()} != {chern_side.render()}")
    elapsed = time.perf_counter() - t0
    if elapsed > 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _report(1, failures, "pencil identity holds for m in 2..10, n in 0..6")


def test_criterion_02_koszul_route():
    failures = []
    t0 = time.perf_counter()
    for m in range(2, 11):
        for n in range(7):
            ok, _ = verify_pencil_koszul(m, n)
            if not ok:
                failures.append(f"m={m} n={n}: koszul route disagrees")
    elapsed = time.perf_counter() - t0
    if elapsed > 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _report(2, failures, "Koszul route reproduces the class for m in 2..10, n in 0..6")


def test_criterion_03_corpus_routes_agree():
    failures = []
    t0 = time.perf_counter()
    for name, arr in _corpus().items():
        vr = verify(arr)
        vectors = {route.name: route.vector for route in vr.routes}
        if not vr.passed:
            failures.append(f"{name}: routes disagree {vectors}")
        if vectors["lattice_csm"] != EXPECTED_CLASS[name]:
            failures.append(
                f"{name}: class {vectors['lattice_csm']} != {EXPECTED_CLASS[name]}"
            )
    elapsed = time.perf_counter() - t0
    if elapsed > 5.0:
        failures.append(f"took {elapsed:.2f}s, budget 5s")
    _report(3, failures, "all applicable routes agree on every corpus arrangement")


def test_criterion_04_blowup_class():
    failures = []
    arr = parse_file(CORPUS / "three_concurrent.arr")
    route = blowup_chern_snc(build_lattice(arr))
    want = SurfaceClass.make(1, 0, (1,), -1)
    if route.cls != want:
        failures.append(f"blow-up class {route.cls} != {want}")
    if len(route.centers) != 1 or route.centers[0].multiplicity != 3:
        failures.append(f"centers {route.centers}")
    if pushforward_to_p2(route.cls) != (1, 0, -1):
        failures.append(f"pushforward {pushforward_to_p2(route.cls)}")
    _report(4, failures, "blow-up of three concurrent lines pushes to (1, 0, -1)")


def test_criterion_05_freeness_decisions():
    failures = []
    cases = dict(_corpus())
    cases["rank2_model"] = parse("vars 2\n1 0\n0 1\n1 1\n", name="rank2_model")
    t0 = time.perf_counter()
    for name, arr in cases.items():
        want = EXPECTED_FREENESS.get(name, (1, 2))
        rep = freeness_of(arr)
        if rep.free != (want is not None):
            failures.append(f"{name}: free={rep.free}")
            continue
        if want is not None:
            if rep.exponents != want:
                failures.append(f"{name}: exponents {rep.exponents} != {want}")
            mat = [list(polys(g)) for g in rep.generators]
            det = poly_det(mat)
            if det != defining_polynomial(arr).scale(rep.saito_scalar):
                failures.append(f"{name}: Saito determinant mismatch")
        if not rep.search_log or not rep.search_log[-1].startswith(("free:", "not free:")):
            failures.append(f"{name}: search log missing its verdict line")
    elapsed = time.perf_counter() - t0
    if elapsed > 10.0:
        failures.append(f"took {elapsed:.2f}s, budget 10s")
    _report(5, failures, "freeness decided with certified Saito determinants")


def test_criterion_06_terao_factorization():
    failures = []
    for name, arr in _corpus().items():
        want = EXPECTED_FREENESS[name]
        if want is None:
            continue
        chi = char_poly(build_lattice(arr))
        product = poly_from_roots(want)
        if chi != product:
            failures.append(f"{name}: {chi} != roots {want}")
    _report(6, failures, "characteristic polynomial factors over the exponents when free")


def test_criterion_07_point_count_oracle():
    failures = []
    for name, arr in _corpus().items():
        reduced = reduced_char_poly(build_lattice(arr))
        for p in (101, 103, 107):
            count = point_count_oracle(arr, p)
            expected = poly_eval_int(reduced, p)
            if count != expected:
                failures.append(f"{name} p={p}: {count} != {expected}")
    _report(7, failures, "F_p point counts match the reduced characteristic polynomial")


def test_criterion_08_projection_formula():
    failures = []
    for d, e, n in ((1, 1, 2), (2, 1, 2), (1, 1, 3)):
        chk = projection_check(d, e, n)
        if chk.structure_equal:
            failures.append(f"d={d} e={e} n={n}: structure sheaf sides agree unexpectedly")
        if not chk.transverse_equal:
            failures.append(f"d={d} e={e} n={n}: transverse sides differ")
    _report(8, failures, "projection formula separates the sheaf-like from the bundle-like case")


def test_criterion_09_randomized_invariants():
    failures = []
    total = 0
    suites = (
        (mobius_alternation, Random(11), 50),
        (euler_membership, Random(22), 40),
        (reduction_invariance, Random(33), 40),
        (intersection_der, Random(44), 30),
        (kernel_rank_exactness, Random(55), 60),
    )
    for fn, rng, budget in suites:
        try:
            total += fn(rng, budget)
        except AssertionError as exc:
            failures.append(f"{fn.__name__}: {exc}")
    if total < 200:
        failures.append(f"only {total} randomized cases ran")
    _report(9, failures, f"{total} randomized invariant checks, zero failures")
