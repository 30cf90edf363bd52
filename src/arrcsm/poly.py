"""Monomials, the rational writer, the polynomial renderer and the truncated integer class ring.

Monomials are exponent tuples of a fixed length (one slot per variable
x0, x1, ...).  The canonical term order is degree-lexicographic: compare
total degree first, then the exponent tuple lexicographically with x0
heaviest.  monomials_of_degree enumerates in this order descending, and
the derivation search lays out its columns and renders its generators in
it, so all downstream output is byte-stable.  render_terms is the one
polynomial renderer: every rendered generator and class goes through it.

_ratio is the one rational writer: every printed rational is an int
over a positive int, in lowest terms, from ints alone.  _over_lead writes
a row over its first nonzero entry (a basis row, a form, a blow-up
centre), render_terms each coefficient over the terms' common denominator.

FormalClass is the one truncated class ring: power series in one
divisor variable modulo X^(n+1), i.e. A*(P^n) = Z[h]/h^(n+1) with X = h.
Every route that lands a class on P^n (logder's exponent product,
chow's Tjurina route and formal identities) computes in it.  It holds
ints: inverse takes only a constant term of 1, as every route's has.
"""

from __future__ import annotations

from math import gcd
from operator import add
from typing import Iterable, NamedTuple, Sequence

Monomial = tuple[int, ...]


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def monomials_of_degree(nvars: int, degree: int) -> list[Monomial]:
    """All exponent tuples of the given total degree, descending deg-lex.

    Built one slot at a time from (prefix, degree left) pairs, each prefix
    extended by its largest exponent first.  It makes no reference cycle,
    so reference counting alone frees the result.
    """
    if degree < 0:
        return []
    if nvars == 0:
        return [()] if degree == 0 else []
    level: list[tuple[Monomial, int]] = [((), degree)]
    for _ in range(nvars - 1):
        level = [(prefix + (e,), left - e) for prefix, left in level for e in range(left, -1, -1)]
    return [prefix + (left,) for prefix, left in level]


def _ratio(a: int, p: int) -> str:
    """a / p for p > 0 as the fractions module writes it: a // g over p // g, g = gcd(a, p), or a // p."""
    g = gcd(a, p)
    return str(a // g) if g == p else f"{a // g}/{p // g}"


def _over_lead(row: Sequence[int]) -> list[str]:
    """Each entry of a nonzero integer row over its first nonzero entry, which is positive."""
    p = next(filter(None, row))
    return list(map(str, row)) if p == 1 else [_ratio(a, p) for a in row]


def render_terms(terms: Iterable[tuple[int, Iterable[tuple[str, int]]]], den: int = 1) -> str:
    """Sign-aware sum of coefficient / den * monomial terms, in the given order, den > 0.

    A monomial is a sequence of (variable name, exponent) factors.  Zero
    terms and zero exponents are skipped, each magnitude is written by
    _ratio and left off a nonconstant monomial when it is 1, later terms
    are joined by "+ " or "- ", and an empty sum renders as "0".
    """
    pieces: list[str] = []
    for coef, factors in terms:
        if not coef:
            continue
        body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in factors if e)
        mag = _ratio(abs(coef), den)
        chunk = mag if not body else body if mag == "1" else f"{mag}*{body}"
        if not pieces:
            pieces.append(chunk if coef > 0 else f"-{chunk}")
        else:
            pieces.append(f"+ {chunk}" if coef > 0 else f"- {chunk}")
    return " ".join(pieces) if pieces else "0"


class FormalClass(NamedTuple("FormalClass", [("coeffs", tuple[int, ...])])):
    """Truncated series sum coeffs[i] X^i modulo X^(order+1), with int coefficients."""

    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...]) -> "FormalClass":
        if not all(type(c) is int for c in coeffs):
            raise ValueError(f"{coeffs} is not an integer class")
        return super().__new__(cls, coeffs)

    @classmethod
    def make(cls, values, order: int) -> "FormalClass":
        cs = tuple(values)[: order + 1]
        return cls(cs + (0,) * (order + 1 - len(cs)))

    @classmethod
    def one(cls, order: int) -> "FormalClass":
        return cls.make([1], order)

    @classmethod
    def x(cls, order: int) -> "FormalClass":
        return cls.make([0, 1], order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "FormalClass") -> "FormalClass":
        self._check(other)
        return FormalClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FormalClass") -> "FormalClass":
        return self + (-1) * other

    def __mul__(self, other: "FormalClass | int") -> "FormalClass":
        if isinstance(other, FormalClass):
            self._check(other)
            n = self.order
            out = [0] * (n + 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs[: n + 1 - i]):
                    out[i + j] += a * b
            return FormalClass(tuple(out))
        return FormalClass(tuple(a * other for a in self.coeffs))

    def __rmul__(self, other: int) -> "FormalClass":
        return self * other

    def inverse(self) -> "FormalClass":
        """The integer inverse of a class with constant term 1; ValueError for any other."""
        if self.coeffs[0] != 1:
            raise ValueError("inverse needs constant term 1")
        out = [1]
        for k in range(1, self.order + 1):
            out.append(-sum(self.coeffs[i] * out[k - i] for i in range(1, k + 1)))
        return FormalClass(tuple(out))

    def render(self) -> str:
        return render_terms((c, [("X", i)]) for i, c in enumerate(self.coeffs))

    def _check(self, other: "FormalClass") -> None:
        if self.order != other.order:
            raise ValueError("truncation order mismatch")
