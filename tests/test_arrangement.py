from fractions import Fraction

import pytest

from arrcsm.arrangement import Arrangement, LinearForm, ParseError, parse, parse_file
from arrcsm.poly import MultiPoly

THREE_CONCURRENT = "vars 3\n0 1 0\n0 0 1\n0 1 1\n"


def test_parse_basic():
    arr = parse(THREE_CONCURRENT)
    assert arr.nvars == 3
    assert arr.size == 3
    assert arr.projective_dim == 2
    assert [f.coeffs for f in arr.forms] == [
        (0, 1, 0),
        (0, 0, 1),
        (0, 1, 1),
    ]
    assert arr.warnings == ()


def test_canonicalization_leading_one():
    arr = parse("vars 3\n0 2 2\n3 0 0\n")
    assert arr.forms[0].coeffs == (0, 1, 1)
    assert arr.forms[1].coeffs == (1, 0, 0)
    assert LinearForm.make([0, Fraction(-1, 2), 1]).coeffs == (0, 1, -2)


def test_duplicate_collapse_with_warning():
    arr = parse("vars 3\n0 1 1\n0 2 2\n1 0 0\n")
    assert arr.size == 2
    assert len(arr.warnings) == 1
    assert "line 3" in arr.warnings[0]
    assert "collapsed" in arr.warnings[0]


def test_duplicate_warning_text():
    arr = parse("vars 3\n0 1 1\n0 2 2\n1 0 0\n")
    assert arr.warnings == ("line 3: proportional to the form on line 2; collapsed",)


def test_zero_form_rejected():
    with pytest.raises(ParseError) as exc:
        parse("vars 2\n1 0\n0 0\n")
    assert exc.value.line == 3
    assert "zero form" in str(exc.value)


def test_malformed_rational():
    with pytest.raises(ParseError) as exc:
        parse("vars 2\n1 x\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse("vars 2\n1 1/0\n")


def test_wrong_coefficient_count():
    with pytest.raises(ParseError) as exc:
        parse("vars 3\n1 0\n")
    assert "expected 3" in str(exc.value)


def test_header_required():
    with pytest.raises(ParseError):
        parse("1 0 0\n")
    with pytest.raises(ParseError):
        parse("# only a comment\n")
    with pytest.raises(ParseError):
        parse("vars zero\n")
    with pytest.raises(ParseError):
        parse("vars 0\n")


def test_comments_and_crlf():
    text = "# heading\r\nvars 3\r\n0 1 0  # inline note\r\n\r\n0 0 1\r\n"
    arr = parse(text)
    assert arr.size == 2


def test_fractions_parse():
    arr = parse("vars 2\n1/2 1\n")
    assert arr.forms[0].coeffs == (1, 2)  # canonicalized from (1/2, 1)


def test_defining_polynomial():
    arr = parse(THREE_CONCURRENT)
    q = arr.defining_polynomial()
    assert q == MultiPoly(3, {(0, 2, 1): 1, (0, 1, 2): 1})
    empty = parse("vars 3\n")
    assert empty.defining_polynomial() == MultiPoly.const(3, 1)


def test_rank_and_essential():
    assert parse(THREE_CONCURRENT).rank() == 2
    assert not parse(THREE_CONCURRENT).is_essential()
    boolean = parse("vars 3\n1 0 0\n0 1 0\n0 0 1\n")
    assert boolean.rank() == 3
    assert boolean.is_essential()
    assert parse("vars 3\n").rank() == 0


def test_single():
    arr = parse(THREE_CONCURRENT)
    assert arr.single(2).forms[0].coeffs == (0, 1, 1)
    assert arr.single(2).size == 1


def test_duplicate_construction_rejected():
    f = LinearForm.make([1, 0, 0])
    with pytest.raises(ValueError):
        Arrangement(nvars=3, forms=(f, f))


def test_parse_file(tmp_path):
    p = tmp_path / "demo.arr"
    p.write_text(THREE_CONCURRENT, encoding="utf-8")
    arr = parse_file(p)
    assert arr.name == "demo"
    assert arr.size == 3
