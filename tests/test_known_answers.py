"""Answers known from outside arrcsm's code.

The formal identities of example41 and projection have closed forms in
the coefficients of X.

Ziegler's pair (Ziegler, "Combinatorial construction of logarithmic
differential forms", Adv. Math. 76, 1989): nine lines joining two triples
of points along the edges of K_{3,3}.  Both members have the same lattice,
so the same chi and the same CSM class, but D(A) differs in degree 5 by
whether the six triple points lie on a conic.

m generic lines (Rose & Terao; Yuzvinsky, "A free resolution of the
module of derivations for generic arrangements", J. Algebra 136, 1991):
D(A) has the same Hilbert function for any m lines no three of which
meet, with s(k) = C(k + 2, 2) for k >= 0 and 0 below,
dim D(A)_d = (m - 1) s(d - m + 2) - (m - 3) s(d - m + 1) + s(d - 1).

Reflection arrangements (Orlik & Terao, Arrangements of Hyperplanes,
Appendix C): free, with exponents in closed form.

Each Ziegler and reflection arrangement is also a file
tests/inputs/<name>.arr, with goldens under tests/golden/inputs/; the
tests here build its forms and check that the file parses to them.
"""

import json
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from arrcsm.arrangement import parse, parse_file
from arrcsm.cli import run
from arrcsm.logder import degree_dimension
from property_checks import arrangement_text

INPUTS = Path(__file__).resolve().parent / "inputs"


def _result(capsys, argv: list[str]) -> dict:
    assert run([*argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)["result"]


def _input(name: str, forms) -> str:
    """The path of tests/inputs/<name>.arr, which holds exactly forms, in their order."""
    path = INPUTS / f"{name}.arr"
    arr = parse_file(path)
    assert arr == parse(arrangement_text(len(forms[0]), forms)) and not arr.warnings
    return str(path)


def test_example41_matches_its_closed_forms(capsys):
    # (1 - (m-2)X)/(1+X)^2 = sum_k (-1)^k ((k+1) + (m-2)k) X^k, and the
    # twisted class is that times 1 + mX
    for m in range(2, 9):
        for n in range(7):
            chern = [(-1) ** k * ((k + 1) + (m - 2) * k) for k in range(n + 1)]
            twisted = [chern[0]] + [chern[k] + m * chern[k - 1] for k in range(1, n + 1)]
            result = _result(capsys, ["example41", "--m", str(m), "--n", str(n)])
            assert result["identity"] == {"csm_side": chern, "chern_side": chern, "equal": True}
            assert result["koszul"] == {"twisted_class": twisted, "equal": True}


def test_projection_matches_its_closed_forms(capsys):
    # i_*[X] = d h; 1/(1 - d h) and 1/(1 - e h) capped with it; the
    # transverse slice pushes forward d e^k h^(k+1)
    for d in range(1, 5):
        for e in range(1, 5):
            for n in range(2, 7):
                structure = {
                    "pushed": [str(c) for c in [0, d] + [0] * (n - 1)],
                    "capped": [str(c) for c in [0] + [d**k for k in range(1, n + 1)]],
                    "equal": False,
                }
                transverse = [str(c) for c in [0] + [d * e**k for k in range(n)]]
                result = _result(capsys, ["projection", "--d", str(d), "--e", str(e), "--n", str(n)])
                assert result["structure_sheaf"] == structure
                assert result["transverse"] == {"pushed": transverse, "capped": transverse, "equal": True}
                assert result["as_expected"] is True


def _generic_lines(m: int) -> str:
    """The .arr text of the lines (1, t, t^2), t = 1..m, on the moment curve: no three meet."""
    return arrangement_text(3, [[1, t, t * t] for t in range(1, m + 1)])


def _generic_dim(m: int, d: int) -> int:
    def s(k: int) -> int:
        return comb(k + 2, 2) if k >= 0 else 0

    return (m - 1) * s(d - m + 2) - (m - 3) * s(d - m + 1) + s(d - 1)


def test_generic_lines_have_yuzvinskys_hilbert_function():
    for m in range(3, 9):
        arr = parse(_generic_lines(m))
        assert [degree_dimension(arr, d) for d in range(m + 3)] == [_generic_dim(m, d) for d in range(m + 3)]
    assert degree_dimension(parse(_generic_lines(12)), 10) == _generic_dim(12, 10) == 66


@pytest.mark.parametrize("m", range(5, 9))
def test_freeness_logs_yuzvinskys_dims_for_generic_lines(capsys, tmp_path, m):
    # not free for m > 3: the search stops at the overflow degree m - 2
    path = tmp_path / f"lines_{m}.arr"
    path.write_text(_generic_lines(m), encoding="utf-8")
    result = _result(capsys, ["freeness", "--input", str(path)])
    dims = [line.split(",")[0] for line in result["search_log"] if line.startswith("degree ")]
    assert result["free"] is False
    assert dims == [f"degree {d}: dim {_generic_dim(m, d)}" for d in range(m - 1)]


def _cross(p, q):
    """The line through the points p and q of P^2."""
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def _det(rows) -> Fraction:
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


ZIEGLER = {
    "conic": ([(1, t, t * t) for t in (-4, 3, -5)], [(1, t, t * t) for t in (-2, 4, 1)]),
    "off_conic": ([(2, 2, 5), (1, -2, -4), (2, -5, 1)], [(1, 4, -5), (2, -1, -2), (4, -4, 0)]),
}
# dim D(A)_d for d = 0..10 off the conic; on it, degree 5 has one more
ZIEGLER_DIMS = [0, 1, 3, 6, 10, 15, 27, 42, 60, 81, 105]


@pytest.mark.parametrize("member", sorted(ZIEGLER))
def test_ziegler_pair(capsys, member):
    left, right = ZIEGLER[member]
    # the six points lie on a conic exactly when their Veronese determinant vanishes
    veronese = [(x * x, x * y, y * y, x * z, y * z, z * z) for x, y, z in left + right]
    assert (_det(veronese) == 0) == (member == "conic")
    path = _input(f"ziegler_{member}", [_cross(p, q) for p in left for q in right])

    assert _result(capsys, ["charpoly", "--input", path])["ascending_coeffs"] == [-22, 30, -9, 1]
    flats = _result(capsys, ["lattice", "--input", path])["flats"]
    points = [f["hyperplanes"] for f in flats if f["codim"] == 2]
    assert sorted(len(p) for p in points) == [2] * 18 + [3] * 6
    verified = _result(capsys, ["verify", "--input", path])
    assert verified["passed"] is True
    assert verified["routes"] == {
        "lattice_csm": [1, -6, 15],
        "exponent_product": None,
        "tjurina": [1, -6, 15],
        "blowup_pushforward": [1, -6, 15],
    }
    dims = _result(capsys, ["derivations", "--input", path, "--max-degree", "10"])["dims"]
    expected = [dim + (member == "conic" and d == 5) for d, dim in enumerate(ZIEGLER_DIMS)]
    assert dims == [[d, dim] for d, dim in enumerate(expected)]


def _type_d(ell: int) -> list[tuple[int, ...]]:
    """The forms x_i - x_j and x_i + x_j, i < j."""
    return [
        tuple(int(c == i) + s * int(c == j) for c in range(ell))
        for i, j in combinations(range(ell), 2)
        for s in (-1, 1)
    ]


def _type_b(ell: int) -> list[tuple[int, ...]]:
    """The coordinate forms x_i, then type D's forms."""
    return [tuple(int(c == i) for c in range(ell)) for i in range(ell)] + _type_d(ell)


def _odd(k: int) -> list[int]:
    return [2 * i - 1 for i in range(1, k + 1)]


# name -> (forms, number of forms, exponents): B_l has 1, 3, ..., 2l - 1, D_l
# has 1, 3, ..., 2l - 3 and l - 1, and B_3 less x_0 - x_1 has 1, 3, 4
REFLECTION = {
    "B3": (_type_b(3), 9, _odd(3)),
    "B3_deleted": ([f for f in _type_b(3) if f != (1, -1, 0)], 8, [1, 3, 4]),
    "D4": (_type_d(4), 12, sorted(_odd(3) + [4 - 1])),
    "B4": (_type_b(4), 16, _odd(4)),
}


@pytest.mark.parametrize("name", sorted(REFLECTION))
def test_reflection_exponents(capsys, name):
    forms, size, exponents = REFLECTION[name]
    assert len(set(forms)) == size
    path = _input(name.lower(), forms)
    freeness = _result(capsys, ["freeness", "--input", path])
    assert freeness["free"] is True
    assert freeness["exponents"] == exponents
    verified = _result(capsys, ["verify", "--input", path])
    assert verified["passed"] is True
    assert verified["exponents"] == exponents
