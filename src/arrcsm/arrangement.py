"""Hyperplane arrangements and the .arr text format.

An arrangement is a finite list of nonzero rational linear forms on
k^(n+1), i.e. a central arrangement, read projectively as hyperplanes
in P^n.  Forms are kept as primitive integer vectors, first nonzero
entry positive; proportional duplicates collapse with a warning.

File format (.arr), UTF-8 with or without a byte-order mark, LF or CRLF:

    # optional comments, whole-line or trailing
    vars 3
    0 1 0
    0 0 1
    0 1/2 1/2

The header names the number of coordinates k = n+1, at most MAX_VARS;
every following data line carries exactly k rationals (integers, p/q or
decimals), each at most MAX_TOKEN characters long with a decimal
exponent of at most MAX_TOKEN.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .linalg import _insert, _integer_vector, integer_det


# A bound on input size; 100 is P^99, five times the largest CI input.
MAX_VARS = 100
# A coefficient then has at most 2 * MAX_TOKEN digits, and Fraction never
# expands a power of ten beyond 10^MAX_TOKEN.
MAX_TOKEN = 100


class ParseError(ValueError):
    """Malformed .arr input; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class LinearForm(NamedTuple("LinearForm", [("coeffs", tuple[int, ...])])):
    """Nonzero form as primitive ints, its lead (first nonzero entry) positive.

    It stands for the form coeffs / lead; proportional forms have equal coeffs.
    """

    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...]) -> "LinearForm":
        if not (all(type(c) is int for c in coeffs) and gcd(*coeffs) == 1 and next(filter(None, coeffs)) > 0):
            raise ValueError(f"{coeffs} is not a primitive integer form with a positive lead")
        return super().__new__(cls, coeffs)

    @classmethod
    def make(cls, coeffs) -> "LinearForm":
        """The form on the ray of rational coeffs; ValueError when they are all 0."""
        v = list(coeffs)
        if not all(type(a) is int for a in v):
            v = _integer_vector(v)
        g = gcd(*v) if next(filter(None, v), 0) >= 0 else -gcd(*v)
        # g is 0 only for the zero form, which __new__ refuses
        return cls(tuple(v) if g in (0, 1) else tuple([a // g for a in v]))


class Arrangement:
    """Immutable central arrangement in k^nvars (hyperplanes in P^(nvars-1)).

    Equal arrangements have equal nvars and forms; name and warnings are
    not compared or hashed.  The attributes are set once, in __init__; the
    cached properties below write straight into the instance __dict__.
    """

    nvars: int
    forms: tuple[LinearForm, ...]
    name: str
    warnings: tuple[str, ...]

    def __init__(
        self, nvars: int, forms: tuple[LinearForm, ...], name: str = "", warnings: tuple[str, ...] = ()
    ):
        if nvars < 1:
            raise ValueError("need at least one coordinate")
        for f in forms:
            if len(f.coeffs) != nvars:
                raise ValueError("form arity does not match the arrangement")
        canon = {f.coeffs for f in forms}
        if len(canon) != len(forms):
            raise ValueError("duplicate hyperplanes must be collapsed before construction")
        self.__dict__.update(nvars=nvars, forms=forms, name=name, warnings=warnings)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.nvars, self.forms) == (other.nvars, other.forms)

    def __hash__(self) -> int:
        return hash((self.nvars, self.forms))

    def __repr__(self) -> str:
        return (
            f"Arrangement(nvars={self.nvars!r}, forms={self.forms!r},"
            f" name={self.name!r}, warnings={self.warnings!r})"
        )

    @property
    def size(self) -> int:
        return len(self.forms)

    @property
    def projective_dim(self) -> int:
        return self.nvars - 1

    @cached_property
    def _independent(self) -> tuple[tuple[int, ...], dict[int, dict[int, int]]]:
        """Indices of the first rank A independent forms in input order, and the span of all forms.

        The span is linalg's {pivot column: primitive sparse integer row},
        joined from integer_forms; on its pivot columns the chosen forms make
        an invertible matrix.  The join stops once the span has nvars rows:
        no later form can raise the rank, and the span is the RREF of all
        forms either way, since the RREF of a span is unique.  Computed once
        per arrangement and shared, so no caller mutates the span.
        """
        span: dict[int, dict[int, int]] = {}
        chosen: list[int] = []
        for i, v in enumerate(self.integer_forms):
            if _insert(span, v) is not None:
                chosen.append(i)
                if len(chosen) == self.nvars:
                    break
        return tuple(chosen), span

    def rank(self) -> int:
        return len(self._independent[0])

    @cached_property
    def integer_forms(self) -> list[dict[int, int]]:
        """Each form's coeffs as {column: nonzero entry}.

        Computed once per arrangement, so a search reads it at every degree
        without rebuilding it; no caller mutates it.
        """
        return [{j: a for j, a in enumerate(f.coeffs) if a} for f in self.forms]

    def adapted(self) -> tuple["Arrangement", int]:
        """A in coordinates x'_k = alpha_(i_k) of its first r = rank A independent forms, and n+1-r.

        Every form is a combination sum_k c_k alpha_(i_k), so it becomes the
        form c in r variables, and alpha_(i_k) becomes the coordinate
        hyperplane x'_k.  On the pivot columns S the chosen forms make an
        invertible integer matrix B, and c = alpha_S B^(-1), proportional to
        alpha_S adj(B): by Cramer's rule its entry k is the determinant of B
        with row k replaced by alpha_S.  adj(B) takes r^2 determinants of
        minors, once for all forms, and each form is then made primitive.
        The result is essential, and
        D(A) = D(A') (x) S + S^(n+1-r): the exponents of A are those of A'
        and n+1-r zeros (Orlik & Terao, Prop. 4.28).  The empty arrangement
        has r = 0 and is returned as it is.
        """
        chosen, span = self._independent
        if not chosen:
            return self, 0
        pivots = sorted(span)
        r = len(chosen)
        basis = [[self.forms[i].coeffs[c] for c in pivots] for i in chosen]
        # adj(B)[j][k] is the cofactor of B at (k, j)
        adj = [
            [(-1) ** (j + k) * integer_det([row[:j] + row[j + 1:] for row in basis[:k] + basis[k + 1:]])
             for k in range(r)]
            for j in range(r)
        ]
        forms = []
        for f in self.forms:
            w = [f.coeffs[c] for c in pivots]
            forms.append(LinearForm.make([sum(a * row[k] for a, row in zip(w, adj)) for k in range(r)]))
        return Arrangement(nvars=r, forms=tuple(forms), name=self.name), self.nvars - r


def _parse_rational(token: str, line_no: int) -> int | Fraction:
    """The token's value: an int for ASCII digits after signs, else Fraction's reading.

    A token of at most MAX_TOKEN ASCII characters, decimal after its
    signs, is read by int, with no exponent check and without Fraction's
    regex; int fails exactly where Fraction does (two signs, as in --5).
    Longer tokens, exponents, underscores and non-ASCII digits, which int
    and Fraction do not treat alike, take the bounds check and then
    Fraction.
    """
    integer = len(token) <= MAX_TOKEN and token.isascii() and token.lstrip("+-").isdecimal()
    if not integer:
        exponent = token.lower().partition("e")[2].lstrip("+-").replace("_", "")
        if len(token) > MAX_TOKEN or exponent.isdecimal() and int(exponent) > MAX_TOKEN:
            raise ParseError(f"rational {token[:MAX_TOKEN]!r} is over {MAX_TOKEN} characters"
                             f" or has an exponent over {MAX_TOKEN}", line_no)
    try:
        return int(token) if integer else Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot parse rational {token!r}", line_no) from None


def parse(text: str, name: str = "") -> Arrangement:
    """Parse .arr text into an Arrangement.

    Raises ParseError with a line number on malformed input.  Duplicate
    (proportional) forms are collapsed and reported in warnings.
    """
    nvars: int | None = None
    forms: list[LinearForm] = []
    warnings: list[str] = []
    seen: dict[tuple[int, ...], int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if nvars is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "vars":
                raise ParseError("expected header 'vars <k>'", line_no)
            try:
                nvars = int(parts[1])
            except ValueError:
                raise ParseError(f"bad variable count {parts[1][:MAX_TOKEN]!r}", line_no) from None
            if not 1 <= nvars <= MAX_VARS:
                raise ParseError(f"variable count must be between 1 and {MAX_VARS}", line_no)
            continue
        tokens = line.split()
        if len(tokens) != nvars:
            raise ParseError(
                f"expected {nvars} coefficients, found {len(tokens)}", line_no
            )
        coeffs = [_parse_rational(t, line_no) for t in tokens]
        if not any(coeffs):
            raise ParseError("zero form is not a hyperplane", line_no)
        # make cannot fail on a nonzero form
        f = LinearForm.make(coeffs)
        if f.coeffs in seen:
            warnings.append(
                f"line {line_no}: proportional to the form on line {seen[f.coeffs]}; collapsed"
            )
            continue
        seen[f.coeffs] = line_no
        forms.append(f)
    if nvars is None:
        raise ParseError("missing 'vars <k>' header", 1)
    return Arrangement(nvars=nvars, forms=tuple(forms), name=name, warnings=tuple(warnings))


def parse_file(path) -> Arrangement:
    from pathlib import Path

    p = Path(path)
    # one leading U+FEFF (a byte-order mark) is dropped; utf-8-sig would import its own codec
    return parse(p.read_text(encoding="utf-8").removeprefix("\ufeff"), name=p.stem)
