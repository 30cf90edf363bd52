"""Monomials, the polynomial renderer and the truncated class ring over the rationals.

Monomials are exponent tuples of a fixed length (one slot per variable
x0, x1, ...).  The canonical term order is degree-lexicographic: compare
total degree first, then the exponent tuple lexicographically with x0
heaviest.  monomials_of_degree enumerates in this order descending, and
the derivation search lays out its columns and renders its generators in
it, so all downstream output is byte-stable.  render_terms is the one
polynomial renderer: every rendered generator and class goes through it.

FormalClass is the one truncated class ring: power series in one
divisor variable modulo X^(n+1), i.e. A*(P^n) = Q[h]/h^(n+1) with X = h.
Every route that lands a class on P^n (logder's exponent product,
chow's Tjurina route and formal identities) computes in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

Monomial = tuple[int, ...]

Scalar = int | Fraction


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomials_of_degree(nvars: int, degree: int) -> list[Monomial]:
    """All exponent tuples of the given total degree, descending deg-lex."""
    if degree < 0:
        return []
    out: list[Monomial] = []

    def fill(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            fill(prefix + (e,), remaining - e, slots - 1)

    if nvars == 0:
        return [()] if degree == 0 else []
    fill((), degree, nvars)
    return out


def render_terms(terms: Iterable[tuple[Scalar, Iterable[tuple[str, int]]]]) -> str:
    """Sign-aware sum of coefficient * monomial terms, in the given order.

    A monomial is a sequence of (variable name, exponent) factors.  Zero
    terms and zero exponents are skipped, a coefficient of magnitude 1 is
    left off a nonconstant monomial, later terms are joined by "+ " or
    "- ", and an empty sum renders as "0".
    """
    pieces: list[str] = []
    for coef, factors in terms:
        if not coef:
            continue
        body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in factors if e)
        mag = abs(coef)
        chunk = str(mag) if not body else body if mag == 1 else f"{mag}*{body}"
        if not pieces:
            pieces.append(chunk if coef > 0 else f"-{chunk}")
        else:
            pieces.append(f"+ {chunk}" if coef > 0 else f"- {chunk}")
    return " ".join(pieces) if pieces else "0"


@dataclass(frozen=True)
class FormalClass:
    """Truncated series sum coeffs[i] X^i modulo X^(order+1)."""

    coeffs: tuple[Fraction, ...]

    @classmethod
    def make(cls, values, order: int) -> "FormalClass":
        cs = [Fraction(v) for v in values][: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        return cls(tuple(cs))

    @classmethod
    def one(cls, order: int) -> "FormalClass":
        return cls.make([1], order)

    @classmethod
    def x(cls, order: int, coef: Scalar = 1) -> "FormalClass":
        return cls.make([0, coef], order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "FormalClass") -> "FormalClass":
        self._check(other)
        return FormalClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FormalClass") -> "FormalClass":
        self._check(other)
        return FormalClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "FormalClass | Scalar") -> "FormalClass":
        if isinstance(other, FormalClass):
            self._check(other)
            n = self.order
            out = [Fraction(0)] * (n + 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j in range(n + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
            return FormalClass(tuple(out))
        c = Fraction(other)
        return FormalClass(tuple(a * c for a in self.coeffs))

    def __rmul__(self, other: Scalar) -> "FormalClass":
        return self * other

    def inverse(self) -> "FormalClass":
        if not self.coeffs[0]:
            raise ValueError("inverse needs a unit constant term")
        n = self.order
        inv0 = Fraction(1) / self.coeffs[0]
        out = [inv0] + [Fraction(0)] * n
        for k in range(1, n + 1):
            acc = Fraction(0)
            for i in range(1, k + 1):
                acc += self.coeffs[i] * out[k - i]
            out[k] = -acc * inv0
        return FormalClass(tuple(out))

    def to_int_vector(self) -> tuple[int, ...]:
        if any(c.denominator != 1 for c in self.coeffs):
            raise RuntimeError("internal consistency failure: non-integral class vector")
        return tuple(int(c) for c in self.coeffs)

    def render(self, var: str = "X") -> str:
        return render_terms((c, [(var, i)]) for i, c in enumerate(self.coeffs))

    def _check(self, other: "FormalClass") -> None:
        if self.order != other.order:
            raise ValueError("truncation order mismatch")
