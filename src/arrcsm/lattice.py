"""Intersection lattice, characteristic polynomial, and CSM classes.

Conventions.  Flats are subspaces of k^(n+1) obtained by intersecting
hyperplanes of the central arrangement, stored canonically as the
primitive integer rows of the span of their defining forms, each its
RREF row times its pivot entry; cli renders the RREF basis from them.
The ambient space (empty intersection) is the lattice bottom.  The order
is reverse inclusion of subspaces, equivalently inclusion of form spans.
The Mobius function is normalized by mu(ambient) = 1 and sum over each
lower interval = 0.

The characteristic polynomial chi(A, t) = sum_x mu(x) t^dim(x) uses
dimensions in k^(n+1) and runs over every flat, the origin included
when the arrangement is essential.  The CSM class of the projective
complement is assembled by Mobius inclusion-exclusion over the
projectivized flats (the origin has empty projectivization and is
skipped): each flat P^d contributes its Chern class pushed into
A_*(P^n), with coefficient of [P^(d-i)] equal to binomial(d+1, i).
Both read a flat's codim and mu alone, so they read the sums of mu by
codim and make no span (the CSM class depends on the lattice only
through chi: Aluffi, IMRN 2013).  CSM vectors are indexed by
codimension, entry j multiplying [P^(n-j)], so the last entry is the
Euler characteristic of the complement.
"""

from __future__ import annotations

from bisect import bisect
from functools import cached_property
from math import comb, gcd, lcm
from typing import NamedTuple

from .arrangement import Arrangement
from .poly import render_terms


class BadReductionError(ValueError):
    """Prime unusable for the point-count oracle (form degenerates mod p)."""


class Flat(NamedTuple):
    """One lattice element: the span of its forms as primitive integer rows.

    span holds one row per pivot, in pivot order: gcd 1, positive at its
    own pivot, its first nonzero entry, and 0 at every other pivot, so
    each row is its RREF row times its pivot entry.  A NamedTuple: the
    lattice builds one per flat, and it costs less to build than a frozen
    dataclass.
    """

    span: tuple[tuple[int, ...], ...]
    codim: int
    indices: tuple[int, ...]
    mu: int


class IntersectionLattice:
    """An arrangement's intersection lattice, as build_lattice's walk leaves it.

    mu_sums[c] sums mu over the flats of codim c, c = 0..rank A, which is
    all that chi and the CSM class read.  The walk leaves the spans of the
    flats of codim rank A - 1 unmade, as the joins that make them; flats
    makes those and the order on its first read.
    """

    def __init__(self, arrangement: Arrangement, mu_sums: tuple[int, ...], walk: tuple) -> None:
        self.arrangement = arrangement
        self.mu_sums = mu_sums
        # (span by closed index set, pending join by closed index set, mu by
        # closed index set, every pivot entry the walk made)
        self._walk = walk
        self._size = len(walk[2])

    @cached_property
    def flats(self) -> tuple[Flat, ...]:
        """Every flat, in order of codim, then RREF rows.

        The first read makes each pending span by its join (_join, the
        walk's own step), sorts, and drops the walk.  A span row is its
        pivot entry times its RREF row, so with scale the lcm of every
        pivot entry, the row times scale // (its pivot entry) is scale
        times its RREF row: ints that order like the RREF rows, so the
        sort makes and compares no Fraction.  The pivot entries are
        gathered as the rows are made: the top's, each residue's lead,
        and each stepped row's entry at its pivot; a row a join leaves as
        it is keeps its entry.  When scale is 1 the span is its own key.
        """
        found, pending, mus, leads = self._walk
        del self._walk
        for x, (pivots, span, residue) in pending.items():
            found[x] = _join(pivots, span, residue, leads)[2]
        spans = list(found.values())
        scale = lcm(*leads)

        def scaled(row: tuple[int, ...]) -> tuple[int, ...]:
            m = scale // next(filter(None, row))
            return tuple([a * m for a in row])

        keys = spans if scale == 1 else [tuple(map(scaled, span)) for span in spans]
        # (codim, key) differs between any two flats, so spans and indices are never compared
        order = sorted(zip(map(len, spans), keys, spans, found))
        return tuple([Flat(span, codim, x, mus[x]) for codim, _, span, x in order])

    def of_codim(self, c: int) -> tuple[Flat, ...]:
        return tuple(f for f in self.flats if f.codim == c)

    def size(self) -> int:
        return self._size


def _join(pivots: tuple[int, ...], span: tuple[tuple[int, ...], ...], residue: tuple[int, ...],
          leads: set[int]) -> tuple[int, int, tuple[tuple[int, ...], ...]]:
    """A flat's span joined with a residue against it: the lead, its place among the pivots, the span.

    One elimination step at the lead (linalg._sparse_step, on dense rows)
    on each row nonzero there, and the residue goes in at its pivot's
    place; each pivot entry made goes into leads.
    """
    p = next(filter(None, residue))
    leads.add(p)
    lead = residue.index(p)
    joined = []
    for pc, row in zip(pivots, span):
        c = row[lead]
        if c:
            w = [p * a - c * b for a, b in zip(row, residue)]
            g = gcd(*w)
            row = tuple([a // g for a in w]) if g > 1 else tuple(w)
            leads.add(row[pc])
        joined.append(row)
    at = bisect(pivots, lead)
    joined.insert(at, residue)
    return lead, at, tuple(joined)


def build_lattice(arr: Arrangement) -> IntersectionLattice:
    """All intersections of subsets of hyperplanes, with Mobius values.

    A flat is found as the closed set of hyperplanes through it, its span
    kept as Flat.span keeps it: primitive integer rows in pivot order.
    Each hyperplane outside a flat F carries its residue against that
    span, a tuple made primitive with a positive leading entry.  form_j
    lies in span(F, form_i) exactly when the residues of form_i and
    form_j are proportional, that is equal, so the hyperplanes grouped by
    residue are the covers of F, one group each.  A residue is 0 at the
    pivots of F, and its first nonzero column, lead, is the cover's new
    pivot.  So one elimination step at lead on each row of F's span that
    is nonzero there joins it to the span (_join), and one step at lead
    turns each other group's residue into its residue against the cover,
    which the forms of a group share.  A residue that is already 0 at
    lead is kept as it is.  The walk makes no Fraction.

    With r = rank A, a flat of codim r - 1 has one cover, the top: the
    span of all forms, closed under every hyperplane.  So the walk stops
    at codim r - 1 without reducing any residue against those flats, and
    leaves their joins pending until something reads the flats; the top
    enters once with the span Arrangement._independent builds (the RREF
    of a span is unique, whichever forms built it).

    mu by Weisner's theorem (Stanley, Enumerative Combinatorics I, Cor.
    3.9.3) for the atom of X's smallest hyperplane a: the Y <= X whose
    join with it is X are X and the Y covered by X that miss a, so
    mu(X) = -sum mu(Y) over those Y.  So the walk visits only those
    pairs.  A group's smallest hyperplane is its first, and the groups of
    a flat come in order of it: the bottom's groups come in index order,
    each group of a cover starts with its first contributor, and the
    groups keep the order of their first contributors.  From a flat Y
    other than the bottom, the cover of a group is X with a = through[0]
    exactly when through[0] comes before Y's smallest hyperplane, so the
    walk leaves Y at its first group past that, before building the
    cover's index set.  Nothing else is lost: the lattice is geometric,
    so every flat X of codim c < r has a lower cover Y missing a (extend
    {a} to a basis of X's forms, then drop a), and Y, of codim
    c - 1 <= r - 2, is in the walk; by induction on c every flat is
    found.  The walk goes level by level, so a flat's sum is complete
    before its own covers are met; the top sums the flats of codim r - 1
    that miss hyperplane 0.  The sums by codim follow.
    """
    top = arr._independent[1]
    r = len(top)
    everything = tuple(range(arr.size))
    # closed index set -> span, below codim r - 1 and the top; the top is
    # the bottom, () -> (), when A is empty
    found: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {
        (): (), everything: tuple(
            tuple(top[pc].get(j, 0) for j in range(arr.nvars)) for pc in sorted(top)
        ),
    }
    # closed index set of codim r - 1 -> (pivots, span, residue): the join that makes its span
    pending: dict[tuple[int, ...], tuple] = {}
    # every pivot entry of every span row, as the row is made
    leads = {top[pc][pc] for pc in top}
    mus = {(): 1}
    covers = {f.coeffs: (i,) for i, f in enumerate(arr.forms)}
    # (closed index set, pivots, span, {residue: the forms outside it with that residue})
    frontier = [((), (), (), covers)] if r > 1 else []
    while frontier:
        nxt = []
        for indices, pivots, span, covers in frontier:
            first = indices[0] if indices else arr.size
            last = len(pivots) == r - 2
            for residue, through in covers.items():
                # Weisner: the covers whose smallest hyperplane this flat misses
                if through[0] > first:
                    break
                cover = tuple(sorted(indices + through))
                mus[cover] = mus.get(cover, 0) - mus[indices]
                if last:
                    # the join from any lower cover makes the same span, its RREF
                    pending[cover] = (pivots, span, residue)
                    continue
                if cover in found:
                    continue
                lead, at, joined = _join(pivots, span, residue, leads)
                found[cover] = joined
                p = residue[lead]
                above: dict[tuple[int, ...], tuple[int, ...]] = {}
                for v, js in covers.items():
                    if v is residue:
                        continue
                    c = v[lead]
                    if c:
                        w = [p * a - c * b for a, b in zip(v, residue)]
                        # primitive, with a positive first nonzero entry
                        g = gcd(*w) if next(filter(None, w)) > 0 else -gcd(*w)
                        v = tuple([a // g for a in w]) if g != 1 else tuple(w)
                    above[v] = above.get(v, ()) + js
                nxt.append((cover, pivots[:at] + (lead,) + pivots[at:], joined, above))
        frontier = nxt

    if r:
        # when r = 1 the one flat below the top is the bottom
        mus[everything] = -sum(mus[x] for x in (pending if r > 1 else found) if 0 not in x)
    sums = [0] * (r + 1)
    for x, span in found.items():
        sums[len(span)] += mus[x]
    sums[r - 1] += sum(mus[x] for x in pending)
    return IntersectionLattice(arr, tuple(sums), (found, pending, mus, leads))


def char_poly(lat: IntersectionLattice) -> tuple[int, ...]:
    """Coefficients of chi(A, t), ascending powers, length nvars + 1."""
    return (0,) * (lat.arrangement.nvars + 1 - len(lat.mu_sums)) + lat.mu_sums[::-1]


def poly_eval_int(coeffs: tuple[int, ...], t: int) -> int:
    total = 0
    for c in reversed(coeffs):
        total = total * t + c
    return total


def divide_by_t_minus(coeffs: tuple[int, ...], r: int) -> tuple[int, ...]:
    """Exact quotient by (t - r), by synthetic division; raises if (t - r) is not a factor."""
    if poly_eval_int(coeffs, r) != 0:
        raise ValueError(f"polynomial is not divisible by (t - {r})")
    out = [0] * (len(coeffs) - 1)
    carry = 0
    for i in range(len(coeffs) - 1, 0, -1):
        carry = carry * r + coeffs[i]
        out[i - 1] = carry
    return tuple(out)


def integer_roots(chi: tuple[int, ...]) -> tuple[int, ...] | None:
    """Nonnegative integer roots of chi, ascending with multiplicity; None unless chi splits so.

    chi has ascending coefficients.  If chi = prod (t - r_i), the r_i sum
    to minus its coefficient of t^(deg - 1), so nonnegative roots lie in
    0 .. -chi[-2].  Dividing out every root found there leaves 1 exactly
    when chi is monic and splits into them.
    """
    roots: list[int] = []
    rest = chi
    for r in range(-chi[-2] + 1 if len(chi) > 1 else 0):
        while len(rest) > 1 and poly_eval_int(rest, r) == 0:
            rest = divide_by_t_minus(rest, r)
            roots.append(r)
    return tuple(roots) if rest == (1,) else None


def reduced_char_poly(lat: IntersectionLattice) -> tuple[int, ...]:
    """chi(A, t) / (t - 1); defined for nonempty arrangements."""
    if lat.arrangement.size == 0:
        raise ValueError("reduced characteristic polynomial needs at least one hyperplane")
    return divide_by_t_minus(char_poly(lat), 1)


def render_poly_in_t(coeffs: tuple[int, ...]) -> str:
    return render_terms((coeffs[i], [("t", i)]) for i in reversed(range(len(coeffs))))


def csm_complement(lat: IntersectionLattice) -> tuple[int, ...]:
    """CSM class of P^n minus the arrangement, entries by codimension."""
    arr = lat.arrangement
    n = arr.projective_dim
    out = [0] * (n + 1)
    # the origin, of codim nvars, has empty projectivization
    for c, mu in enumerate(lat.mu_sums[:n + 1]):
        d = n - c
        for i in range(d + 1):
            out[c + i] += mu * comb(d + 1, i)
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


# Largest chart, p^n points of P^n(F_p), that the oracle sweeps.  The
# sweep holds one boolean mask of the chart, p^n bytes (2 MB at this
# bound), and a few int64 arrays of p^(n-1) entries, whatever |A|.
ORACLE_MAX_POINTS = 2_000_000


def point_count_oracle(arr: Arrangement, p: int) -> int:
    """Count points of P^n(F_p) lying on no hyperplane, fibre by fibre.

    Independent of the lattice machinery: reduces the forms mod p and
    sweeps every projective point chart by chart (vectorized, int64
    modular arithmetic, no rounding anywhere).  In the chart
    (0, ..., 0, 1, y_(lead+1), ..., y_n) a prefix (y_(lead+1), ...,
    y_(n-1)) fixes an affine line in y_n, on which a form is a + c*y_n:
    for c != 0 it vanishes at y_n = -a/c alone, for c = 0 on the whole
    line when a = 0 and nowhere otherwise.  So each form marks its
    points in one boolean mask of the chart with one scatter per fibre,
    and the chart contributes its unmarked points.  Refuses primes of
    bad reduction, those dividing a form's lead and so a denominator of
    the form over it; refuses a largest chart p^n above
    ORACLE_MAX_POINTS, the size of that mask, before allocating anything.
    """
    if p > 1000:  # before _is_prime, whose trial division is unbounded in p
        raise ValueError("oracle is restricted to primes up to 1000")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    n1 = arr.nvars
    if p ** (n1 - 1) > ORACLE_MAX_POINTS:
        raise ValueError(
            f"oracle chart of {p}^{n1 - 1} points exceeds the bound of {ORACLE_MAX_POINTS}"
        )
    import numpy as np  # only this oracle uses numpy; the CLI starts without it

    for f in arr.forms:
        lead = next(filter(None, f.coeffs))
        for a in f.coeffs:
            # a / lead in lowest terms is (a // g) / (lead // g)
            if lead // (g := gcd(a, lead)) % p == 0:
                raise BadReductionError(f"denominator of {a // g}/{lead // g} vanishes mod {p}")
    reduced_forms = [[a % p for a in f.coeffs] for f in arr.forms]

    total = 0
    for lead in range(n1):
        free = n1 - lead - 1
        if not free:
            # the chart is the point (0, ..., 0, 1)
            total += all(row[lead] for row in reduced_forms)
            continue
        # the prefix y_(lead+1), ..., y_(n-1) as open grids, p long on
        # their own axis and 1 on the others; y_n is the mask's last axis
        prefix = np.ix_(*[np.arange(p, dtype=np.int64)] * (free - 1))
        hit = np.zeros((p,) * free, dtype=bool)
        for row in reduced_forms:
            a = row[lead]
            for c, y in zip(row[lead + 1:-1], prefix):
                if c:
                    a = a + c * y
            if row[-1]:
                hit[(*prefix, a * -pow(row[-1], -1, p) % p)] = True
            else:
                hit[np.broadcast_to(a % p == 0, hit.shape[:-1])] = True
        total += hit.size - int(np.count_nonzero(hit))
    return total
