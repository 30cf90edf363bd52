"""Exact multivariate polynomials over the rationals.

Monomials are exponent tuples of a fixed length (one slot per variable
x0, x1, ...).  The canonical term order is degree-lexicographic: compare
total degree first, then the exponent tuple lexicographically with x0
heaviest.  Every rendered or enumerated term sequence uses this order
descending, so all downstream output is byte-stable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping

Monomial = tuple[int, ...]

Scalar = int | Fraction


def monomial_key(mono: Monomial) -> tuple[int, Monomial]:
    """Sort key realizing ascending degree-lexicographic order."""
    return (sum(mono), mono)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True when x^a divides x^b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


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


class MultiPoly:
    """Immutable sparse polynomial: {exponent tuple: nonzero Fraction}."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, Scalar] | None = None):
        self.nvars = nvars
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coef in terms.items():
                if len(mono) != nvars:
                    raise ValueError(f"monomial {mono} has wrong arity for {nvars} variables")
                c = Fraction(coef)
                if c:
                    clean[mono] = clean.get(mono, Fraction(0)) + c
                    if not clean[mono]:
                        del clean[mono]
        self._terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c: Scalar) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    @classmethod
    def linear_form(cls, coeffs: Iterable[Scalar]) -> "MultiPoly":
        """Sum of coeffs[i] * x_i."""
        cs = [Fraction(c) for c in coeffs]
        n = len(cs)
        terms = {}
        for i, c in enumerate(cs):
            if c:
                terms[tuple(1 if j == i else 0 for j in range(n))] = c
        return cls(n, terms)

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Terms in descending deg-lex order."""
        for mono in sorted(self._terms, key=monomial_key, reverse=True):
            yield mono, self._terms[mono]

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(mono, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(m) for m in self._terms)

    def leading_term(self) -> tuple[Monomial, Fraction]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self._terms, key=monomial_key)
        return mono, self._terms[mono]

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        terms = dict(self._terms)
        for m, c in other._terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return MultiPoly(self.nvars, terms)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {m: -c for m, c in self._terms.items()})

    def __mul__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if self.nvars != other.nvars:
                raise ValueError("variable count mismatch")
            terms: dict[Monomial, Fraction] = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    m = monomial_mul(m1, m2)
                    terms[m] = terms.get(m, Fraction(0)) + c1 * c2
            return MultiPoly(self.nvars, terms)
        return self.scale(other)

    def __rmul__(self, other: Scalar) -> "MultiPoly":
        return self.scale(other)

    def scale(self, c: Scalar) -> "MultiPoly":
        c = Fraction(c)
        if not c:
            return MultiPoly.zero(self.nvars)
        return MultiPoly(self.nvars, {m: cc * c for m, cc in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    def derivative(self, i: int) -> "MultiPoly":
        """Partial derivative with respect to x_i."""
        terms: dict[Monomial, Fraction] = {}
        for m, c in self._terms.items():
            e = m[i]
            if e:
                dm = m[:i] + (e - 1,) + m[i + 1:]
                terms[dm] = terms.get(dm, Fraction(0)) + c * e
        return MultiPoly(self.nvars, terms)

    def render(self, names: list[str] | None = None) -> str:
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        return render_terms((coef, zip(names, mono)) for mono, coef in self.terms())

    def __repr__(self) -> str:
        return f"MultiPoly({self.render()})"


def reduce_mod_linear(p: MultiPoly, form: MultiPoly) -> MultiPoly:
    """Canonical representative of p modulo a linear polynomial.

    Solves the form for its pivot variable (first one with a nonzero
    coefficient) and substitutes.  The result involves no pivot variable,
    and is zero exactly when the form divides p.
    """
    if p.nvars != form.nvars:
        raise ValueError("variable count mismatch")
    if form.is_zero() or form.degree() != 1:
        raise ValueError("modulus must be a nonzero linear polynomial")
    n = form.nvars
    lam = [form.coefficient(tuple(1 if j == i else 0 for j in range(n))) for i in range(n)]
    c0 = form.coefficient((0,) * n)
    pivot = next(i for i, c in enumerate(lam) if c)
    # x_pivot = -(c0 + sum_{j != pivot} lam_j x_j) / lam_pivot
    repl_terms: dict[Monomial, Fraction] = {}
    if c0:
        repl_terms[(0,) * n] = -c0 / lam[pivot]
    for j, c in enumerate(lam):
        if j != pivot and c:
            repl_terms[tuple(1 if k == j else 0 for k in range(n))] = -c / lam[pivot]
    repl = MultiPoly(n, repl_terms)
    powers: list[MultiPoly] = [MultiPoly.const(n, 1)]
    result = MultiPoly.zero(n)
    for mono, coef in p.terms():
        e = mono[pivot]
        while len(powers) <= e:
            powers.append(powers[-1] * repl)
        rest = mono[:pivot] + (0,) + mono[pivot + 1:]
        result = result + MultiPoly(n, {rest: coef}) * powers[e]
    return result


def poly_divmod(p: MultiPoly, f: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Division with remainder by a single polynomial, deg-lex leading terms."""
    if f.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if p.nvars != f.nvars:
        raise ValueError("variable count mismatch")
    n = p.nvars
    lead_m, lead_c = f.leading_term()
    quotient = MultiPoly.zero(n)
    work = p
    remainder = MultiPoly.zero(n)
    while not work.is_zero():
        m, c = work.leading_term()
        if monomial_divides(lead_m, m):
            t = MultiPoly(n, {monomial_div(m, lead_m): c / lead_c})
            quotient = quotient + t
            work = work - t * f
        else:
            t = MultiPoly(n, {m: c})
            remainder = remainder + t
            work = work - t
    return quotient, remainder
