import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrcsm import arrangement
from arrcsm.arrangement import (
    MAX_TOKEN,
    MAX_VARS,
    Arrangement,
    LinearForm,
    ParseError,
    _parse_rational,
    parse,
    parse_file,
)
from oracles import MultiPoly, defining_polynomial, single
from property_checks import arrangement_text

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
    # primitive integers with a positive lead, not the lead-1 form (0, 1, 3/2)
    assert LinearForm.make([0, -4, -6]).coeffs == (0, 2, 3)
    with pytest.raises(ValueError):
        LinearForm.make([0, Fraction(0), 0])
    # an iterable is read once: ints skip the integer vector, a Fraction does not
    assert LinearForm.make(a for a in (0, -4, -6)).coeffs == (0, 2, 3)
    assert LinearForm.make(a for a in (0, Fraction(-1, 2), 1)).coeffs == (0, 1, -2)


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


def test_variable_count_is_bounded():
    assert MAX_VARS >= 7  # the largest corpus, benchmark and CI input
    assert parse(f"vars {MAX_VARS}\n").nvars == MAX_VARS
    for count in (MAX_VARS + 1, 1000, 10**20):
        with pytest.raises(ParseError, match=f"between 1 and {MAX_VARS}"):
            parse(f"vars {count}\n")


@pytest.mark.parametrize("token", ["1e5000", "1e30000000", "-2.5E-1_000_000", "7" * (MAX_TOKEN + 1)])
def test_coefficient_tokens_are_bounded_before_fraction_builds_them(token):
    started = time.perf_counter()
    with pytest.raises(ParseError) as exc:
        parse(f"vars 2\n1 {token}\n")
    assert time.perf_counter() - started < 1
    assert exc.value.line == 2
    assert repr(token[:MAX_TOKEN]) in str(exc.value)
    assert "digits" not in str(exc.value)


def test_coefficient_tokens_at_the_bound_parse():
    arr = parse(f"vars 3\n1 0 1e{MAX_TOKEN}\n0 1 -3.5e-{MAX_TOKEN}\n")
    assert arr.forms[0].coeffs[2] == 10**MAX_TOKEN
    assert arr.forms[1].coeffs == (0, 2 * 10**MAX_TOKEN, -7)
    assert parse("vars 2\n1 " + "9" * MAX_TOKEN + "\n").forms[0].coeffs[1] == 10**MAX_TOKEN - 1


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
    q = defining_polynomial(arr)
    assert q == MultiPoly(3, {(0, 2, 1): 1, (0, 1, 2): 1})
    empty = parse("vars 3\n")
    assert defining_polynomial(empty) == MultiPoly.const(3, 1)


def test_rank_and_essential():
    concurrent = parse(THREE_CONCURRENT)
    assert concurrent.rank() == 2
    assert concurrent.rank() != concurrent.nvars
    boolean = parse("vars 3\n1 0 0\n0 1 0\n0 0 1\n")
    assert boolean.rank() == 3
    assert boolean.rank() == boolean.nvars
    assert parse("vars 3\n").rank() == 0


@pytest.mark.parametrize(
    "text",
    [
        THREE_CONCURRENT,
        "vars 3\n1 0 0\n0 1 0\n0 0 1\n",
        "vars 4\n1 -1 0 0\n1 0 -1 0\n1 0 0 -1\n0 1 -1 0\n0 1 0 -1\n0 0 1 -1\n",
        "vars 4\n0 1/2 -3 0\n0 2 0 0\n0 1 1 0\n0 -3 5/3 0\n",
        "vars 3\n1 2 3\n2 3 1\n3 1 2\n1 1 1\n1/2 -1 2/3\n",
    ],
    ids=["concurrent", "boolean", "braid_A3", "rank2_rational", "generic"],
)
def test_adapted_coordinates(text):
    arr = parse(text, name="a")
    adapted, lineality = arr.adapted()
    r, n1 = arr.rank(), arr.nvars
    assert (adapted.nvars, adapted.size, lineality, adapted.name) == (r, arr.size, n1 - r, "a")
    assert adapted.rank() == r
    # x'_k is the k-th independent form in input order
    chosen = []
    for i, f in enumerate(arr.forms):
        if Arrangement(arr.nvars, tuple(arr.forms[j] for j in chosen + [i])).rank() > len(chosen):
            chosen.append(i)
    for k, i in enumerate(chosen):
        assert adapted.forms[i].coeffs == tuple(int(j == k) for j in range(r))
    # every form is its new coefficients applied to the chosen forms
    basis = [arr.forms[i].coeffs for i in chosen]
    for form, new in zip(arr.forms, adapted.forms):
        combined = [sum(c * b[j] for c, b in zip(new.coeffs, basis)) for j in range(n1)]
        assert LinearForm.make(combined) == form


def test_adapted_empty_arrangement_is_itself():
    empty = parse("vars 3\n")
    assert empty.adapted() == (empty, 0)


def test_single():
    arr = parse(THREE_CONCURRENT)
    assert single(arr, 2).forms[0].coeffs == (0, 1, 1)
    assert single(arr, 2).size == 1


def test_duplicate_construction_rejected():
    f = LinearForm.make([1, 0, 0])
    with pytest.raises(ValueError, match="duplicate"):
        Arrangement(nvars=3, forms=(f, f))
    with pytest.raises(ValueError, match="at least one coordinate"):
        Arrangement(0, ())
    with pytest.raises(ValueError, match="arity"):
        Arrangement(nvars=2, forms=(f,))


def test_equality_and_hash_ignore_name_and_warnings():
    forms = (LinearForm.make([1, 0, 0]), LinearForm.make([0, 1, 1]))
    plain = Arrangement(3, forms)
    warnings = ("line 3: proportional to the form on line 2; collapsed",)
    named = Arrangement(3, forms, name="named", warnings=warnings)
    assert plain == named and not plain != named
    assert hash(plain) == hash(named) and len({plain, named}) == 1
    assert plain != Arrangement(3, forms[:1])
    assert plain != Arrangement(4, tuple(LinearForm.make([*f.coeffs, 0]) for f in forms))
    with pytest.raises(AttributeError):
        plain.name = "renamed"
    with pytest.raises(AttributeError):
        del named.name
    # another type compares unequal through NotImplemented, not an error
    assert (plain == 3) is False and plain != 3
    assert repr(named) == (
        f"Arrangement(nvars=3, forms={forms!r}, name='named', warnings={warnings!r})"
    )


@pytest.mark.parametrize("coeffs", [(2, 4), (-1, 0), (Fraction(1, 2), 1), (0, 0), (True, 0)])
def test_non_canonical_form_rejected(coeffs):
    # not primitive, a negative lead, not ints, zero; bool is not an int here
    with pytest.raises(ValueError):
        LinearForm(coeffs)


def test_parse_file(tmp_path):
    p = tmp_path / "demo.arr"
    p.write_text(THREE_CONCURRENT, encoding="utf-8")
    arr = parse_file(p)
    assert arr.name == "demo"
    assert arr.size == 3


class _NotAscii(str):
    """A token that _parse_rational reads as Fraction does, past its integer path."""

    def isascii(self):
        return False


def _parse_or_error(text: str):
    try:
        arr = parse(text)
    except ParseError as exc:
        return str(exc)
    assert all(type(c) is int for f in arr.forms for c in f.coeffs)
    return arr, arr.warnings


@pytest.mark.parametrize(
    "token",
    ["0", "-0", "+5", "007", "-12", "1/2", "0.5", "3e1", "+-1", "-+1", "1_0", "\u0663", "-", "+",
     "9" * MAX_TOKEN],
)
def test_integer_tokens_parse_as_fraction_reads_them(monkeypatch, token):
    # the form repeats, so a warning is compared too
    text = f"vars 3\n{token} 1 0\n{token} 1 0\n{token} {token} 1\n"
    fast = _parse_or_error(text)
    original = arrangement._parse_rational
    monkeypatch.setattr(
        arrangement, "_parse_rational", lambda t, line_no: original(_NotAscii(t), line_no)
    )
    assert fast == _parse_or_error(text)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(st.from_regex(r"[+-]?[0-9]{1,30}", fullmatch=True))
def test_integer_token_is_its_fraction(token):
    value = _parse_rational(token, 1)
    assert type(value) is int and value == Fraction(token)


@pytest.mark.parametrize(
    "token,expected",
    [
        ("7", 7),
        ("-7", -7),
        ("+-3", "cannot parse rational '+-3'"),
        ("--5", "cannot parse rational '--5'"),
        ("1" * 101, f"rational '{'1' * 100}' is over 100 characters or has an exponent over 100"),
        ("1e5", Fraction(100000)),
        ("1E+101", "rational '1E+101' is over 100 characters or has an exponent over 100"),
        ("1_0", Fraction(10)),
        ("\u0663", Fraction(3)),
        ("3/4", Fraction(3, 4)),
        ("0.5", Fraction(1, 2)),
    ],
)
def test_parse_rational_values_and_errors(token, expected):
    # integers up to MAX_TOKEN characters take int; the rest the bounds check, then Fraction
    if isinstance(expected, str):
        with pytest.raises(ParseError) as exc:
            _parse_rational(token, 4)
        assert (str(exc.value), exc.value.line) == (f"line 4: {expected}", 4)
    else:
        value = _parse_rational(token, 4)
        assert (type(value), value) == (type(expected), expected)


def test_independent_forms_stop_at_full_rank(monkeypatch):
    # once the span has nvars rows no form can raise the rank: 3 joins for
    # 12 generic lines, 4 for 12 generic planes in P^3; braid A4 has rank 4
    # in 5 coordinates, so every one of its 10 forms is joined
    calls = []
    insert = arrangement._insert
    monkeypatch.setattr(arrangement, "_insert", lambda rows, v: calls.append(1) or insert(rows, v))
    moment = [arrangement_text(n, [[t**k for k in range(n)] for t in range(1, 13)]) for n in (3, 4)]
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    braid = arrangement_text(5, [[(c == i) - (c == j) for c in range(5)] for i, j in pairs])
    counts = []
    for text in moment + [braid]:
        calls.clear()
        arr = parse(text)
        assert len(arr._independent[0]) == arr.rank()
        counts.append((arr.rank(), len(calls), len(arr._independent[1])))
    assert counts == [(3, 3, 3), (4, 4, 4), (4, 10, 4)]
