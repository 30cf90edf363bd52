"""Intersection lattice, characteristic polynomial, and CSM classes.

Conventions.  Flats are subspaces of k^(n+1) obtained by intersecting
hyperplanes of the central arrangement, stored canonically as the RREF
basis of the span of their defining forms; the ambient space (empty
intersection) is the lattice bottom.  The order is reverse inclusion of
subspaces, equivalently inclusion of form spans.  The Mobius function
is normalized by mu(ambient) = 1 and sum over each lower interval = 0.

The characteristic polynomial chi(A, t) = sum_x mu(x) t^dim(x) uses
dimensions in k^(n+1) and runs over every flat, the origin included
when the arrangement is essential.  The CSM class of the projective
complement is assembled by Mobius inclusion-exclusion over the
projectivized flats (the origin has empty projectivization and is
skipped): each flat P^d contributes its Chern class pushed into
A_*(P^n), with coefficient of [P^(d-i)] equal to binomial(d+1, i).
CSM vectors are indexed by codimension, entry j multiplying [P^(n-j)],
so the last entry is the Euler characteristic of the complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .arrangement import Arrangement
from .linalg import rref_rows, span_contains
from .poly import render_terms


class BadReductionError(ValueError):
    """Prime unusable for the point-count oracle (form degenerates mod p)."""


@dataclass(frozen=True)
class Flat:
    """One lattice element: canonical RREF rows of the span of its forms."""

    rows: tuple[tuple[Fraction, ...], ...]
    codim: int
    indices: tuple[int, ...]
    mu: int


@dataclass(frozen=True)
class IntersectionLattice:
    arrangement: Arrangement
    flats: tuple[Flat, ...]

    def of_codim(self, c: int) -> tuple[Flat, ...]:
        return tuple(f for f in self.flats if f.codim == c)

    def size(self) -> int:
        return len(self.flats)


def build_lattice(arr: Arrangement) -> IntersectionLattice:
    """All intersections of subsets of hyperplanes, with Mobius values.

    A flat is found as the closed set of hyperplanes through it: the
    covers of a flat are the closures of the flat plus one hyperplane
    that no earlier cover of that flat contains.
    """
    form_rows = [f.coeffs for f in arr.forms]
    found: dict[tuple[int, ...], tuple] = {(): ()}  # closed index set -> RREF basis
    frontier = [()]
    while frontier:
        nxt = []
        for indices in frontier:
            below = found[indices]
            outside = [i for i in range(len(form_rows)) if i not in indices]
            while outside:
                basis = rref_rows(below + (form_rows[outside[0]],))
                through = [i for i in outside if span_contains(basis, form_rows[i])]
                outside = [i for i in outside if i not in through]
                cover = tuple(sorted(indices + tuple(through)))
                if cover not in found:
                    found[cover] = basis
                    nxt.append(cover)
        frontier = nxt

    # mu by top-down recursion: flats strictly below x are those whose
    # index set is a proper subset of x's (equivalent to span inclusion).
    flats: list[Flat] = []
    sets: list[frozenset[int]] = []
    for indices, basis in sorted(found.items(), key=lambda kv: (len(kv[1]), kv[1])):
        s = frozenset(indices)
        mu = -sum(f.mu for f, t in zip(flats, sets) if t < s) if indices else 1
        flats.append(Flat(rows=basis, codim=len(basis), indices=indices, mu=mu))
        sets.append(s)
    return IntersectionLattice(arrangement=arr, flats=tuple(flats))


def char_poly(lat: IntersectionLattice) -> tuple[int, ...]:
    """Coefficients of chi(A, t), ascending powers, length nvars + 1."""
    nvars = lat.arrangement.nvars
    coeffs = [0] * (nvars + 1)
    for f in lat.flats:
        coeffs[nvars - f.codim] += f.mu
    return tuple(coeffs)


def poly_eval_int(coeffs: tuple[int, ...], t: int) -> int:
    total = 0
    for c in reversed(coeffs):
        total = total * t + c
    return total


def poly_from_roots(roots) -> tuple[int, ...]:
    """Monic integer polynomial with the given roots, ascending coefficients."""
    coeffs = [1]
    for r in roots:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= c * r
        coeffs = nxt
    return tuple(coeffs)


def divide_by_t_minus_1(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Exact quotient by (t - 1); raises if (t - 1) is not a factor."""
    if poly_eval_int(coeffs, 1) != 0:
        raise ValueError("polynomial is not divisible by (t - 1)")
    out = [0] * (len(coeffs) - 1)
    carry = 0
    for i in range(len(coeffs) - 1, 0, -1):
        carry += coeffs[i]
        out[i - 1] = carry
    return tuple(out)


def reduced_char_poly(lat: IntersectionLattice) -> tuple[int, ...]:
    """chi(A, t) / (t - 1); defined for nonempty arrangements."""
    if lat.arrangement.size == 0:
        raise ValueError("reduced characteristic polynomial needs at least one hyperplane")
    return divide_by_t_minus_1(char_poly(lat))


def render_poly_in_t(coeffs: tuple[int, ...], var: str = "t") -> str:
    return render_terms((coeffs[i], [(var, i)]) for i in reversed(range(len(coeffs))))


def csm_complement(lat: IntersectionLattice) -> tuple[int, ...]:
    """CSM class of P^n minus the arrangement, entries by codimension."""
    arr = lat.arrangement
    n = arr.projective_dim
    out = [0] * (n + 1)
    for f in lat.flats:
        if f.codim >= arr.nvars:
            continue  # origin flat: empty projectivization
        d = arr.nvars - f.codim - 1
        for i in range(d + 1):
            out[f.codim + i] += f.mu * comb(d + 1, i)
    return tuple(out)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# Largest chart, p^n points of P^n(F_p), that the oracle sweeps: each
# int64 grid then takes at most 16 MB.
ORACLE_MAX_POINTS = 2_000_000


def point_count_oracle(arr: Arrangement, p: int) -> int:
    """Count points of P^n(F_p) lying on no hyperplane, by enumeration.

    Independent of the lattice machinery: reduces the forms mod p and
    sweeps every projective point chart by chart (vectorized, int64
    modular arithmetic, no rounding anywhere).  Refuses primes of bad
    reduction: a coefficient denominator divisible by p, or a form
    vanishing identically mod p; refuses a largest chart p^n above
    ORACLE_MAX_POINTS before allocating anything.
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > 1000:
        raise ValueError("oracle is restricted to primes up to 1000")
    n1 = arr.nvars
    if p ** (n1 - 1) > ORACLE_MAX_POINTS:
        raise ValueError(
            f"oracle chart of {p}^{n1 - 1} points exceeds the bound of {ORACLE_MAX_POINTS}"
        )
    import numpy as np  # only this oracle uses numpy; the CLI starts without it

    reduced_forms: list[list[int]] = []
    for f in arr.forms:
        row = []
        for c in f.coeffs:
            if c.denominator % p == 0:
                raise BadReductionError(f"denominator of {c} vanishes mod {p}")
            row.append((c.numerator * pow(c.denominator, -1, p)) % p)
        if not any(row):
            raise BadReductionError(f"a form vanishes identically mod {p}")
        reduced_forms.append(row)

    total = 0
    for lead in range(n1):
        # chart: coordinates (0, ..., 0, 1, y_{lead+1}, ..., y_n), y free
        nfree = n1 - lead - 1
        shape = (p,) * nfree
        ok = np.ones(shape, dtype=bool)
        grids = np.indices(shape, dtype=np.int64) if nfree else None
        for row in reduced_forms:
            val = np.full(shape, row[lead], dtype=np.int64)
            for j in range(nfree):
                if row[lead + 1 + j]:
                    val = val + row[lead + 1 + j] * grids[j]
            ok &= (val % p) != 0
        total += int(ok.sum())
    return total
