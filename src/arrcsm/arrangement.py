"""Hyperplane arrangements and the .arr text format.

An arrangement is a finite list of nonzero rational linear forms on
k^(n+1), i.e. a central arrangement, read projectively as hyperplanes
in P^n.  Forms are canonicalized so the first nonzero coefficient is 1;
proportional duplicates collapse to one hyperplane with a warning.

File format (.arr), UTF-8 with LF or CRLF line endings:

    # optional comments, whole-line or trailing
    vars 3
    0 1 0
    0 0 1
    0 1/2 1/2

The header names the number of coordinates k = n+1; every following
data line carries exactly k rationals (integers or p/q).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .poly import MultiPoly
from .linalg import rref_rows


class ParseError(ValueError):
    """Malformed .arr input; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class LinearForm:
    """Canonicalized nonzero linear form: first nonzero coefficient is 1."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def make(cls, coeffs) -> "LinearForm":
        cs = tuple(Fraction(c) for c in coeffs)
        lead = next((c for c in cs if c), None)
        if lead is None:
            raise ValueError("zero linear form")
        return cls(tuple(c / lead for c in cs))

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    def poly(self) -> MultiPoly:
        return MultiPoly.linear_form(self.coeffs)


@dataclass(frozen=True)
class Arrangement:
    """Immutable central arrangement in k^nvars (hyperplanes in P^(nvars-1))."""

    nvars: int
    forms: tuple[LinearForm, ...]
    name: str = field(default="", compare=False)
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("need at least one coordinate")
        for f in self.forms:
            if f.nvars != self.nvars:
                raise ValueError("form arity does not match the arrangement")
        canon = {f.coeffs for f in self.forms}
        if len(canon) != len(self.forms):
            raise ValueError("duplicate hyperplanes must be collapsed before construction")

    @property
    def size(self) -> int:
        return len(self.forms)

    @property
    def projective_dim(self) -> int:
        return self.nvars - 1

    def rank(self) -> int:
        return len(rref_rows([f.coeffs for f in self.forms]))

    def is_essential(self) -> bool:
        return self.rank() == self.nvars

    def defining_polynomial(self) -> MultiPoly:
        """Product of the canonical forms; 1 for the empty arrangement."""
        q = MultiPoly.const(self.nvars, 1)
        for f in self.forms:
            q = q * f.poly()
        return q

    def single(self, i: int) -> "Arrangement":
        """Sub-arrangement holding only the i-th hyperplane."""
        return Arrangement(nvars=self.nvars, forms=(self.forms[i],), name=self.name)


def _parse_rational(token: str, line_no: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"cannot parse rational {token!r}", line_no) from None


def parse(text: str, name: str = "") -> Arrangement:
    """Parse .arr text into an Arrangement.

    Raises ParseError with a line number on malformed input.  Duplicate
    (proportional) forms are collapsed and reported in warnings.
    """
    nvars: int | None = None
    rows: list[tuple[int, list[Fraction]]] = []
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
                raise ParseError(f"bad variable count {parts[1]!r}", line_no) from None
            if nvars < 1:
                raise ParseError("variable count must be positive", line_no)
            continue
        tokens = line.split()
        if len(tokens) != nvars:
            raise ParseError(
                f"expected {nvars} coefficients, found {len(tokens)}", line_no
            )
        coeffs = [_parse_rational(t, line_no) for t in tokens]
        if not any(coeffs):
            raise ParseError("zero form is not a hyperplane", line_no)
        rows.append((line_no, coeffs))
    if nvars is None:
        raise ParseError("missing 'vars <k>' header", 1)

    forms: list[LinearForm] = []
    warnings: list[str] = []
    seen: dict[tuple[Fraction, ...], int] = {}
    for line_no, coeffs in rows:
        f = LinearForm.make(coeffs)
        if f.coeffs in seen:
            warnings.append(
                f"line {line_no}: proportional to the form on line {seen[f.coeffs]}; collapsed"
            )
            continue
        seen[f.coeffs] = line_no
        forms.append(f)
    return Arrangement(nvars=nvars, forms=tuple(forms), name=name, warnings=tuple(warnings))


def parse_file(path) -> Arrangement:
    from pathlib import Path

    p = Path(path)
    return parse(p.read_text(encoding="utf-8"), name=p.stem)
