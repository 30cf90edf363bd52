"""Formal class identities and multi-route verification.

Classes on P^n live in poly.FormalClass, the one truncated class ring
A*(P^n) = Z[h]/h^(n+1): the pencil and projection identities, the
Tjurina route, and (in logder) the exponent product compute there.

SurfaceClass is the integer Chow ring of P^2 blown up at k points, with
basis 1, h, E_1..E_k, pt and intersection form h.h = pt, E_i.E_i = -pt,
h.E_i = 0, E_i.E_j = 0; products of three divisors vanish.  Only the
blow-up route uses it, and pushforward_to_p2 brings its class down.
Both rings hold ints: inverse takes only a constant term of 1.

On top of these sit the verification routes for the class of the
logarithmic derivation bundle of a projective line arrangement.
_routes returns one Route record for each, in this order (route order),
and its tuple is the one list of routes:

  lattice_csm          Mobius inclusion-exclusion over the flats
  exponent_product     free case, product over shifted exponents
  tjurina              c(TP^2) / (1 + mh) corrected by ordinary
                       singular points with tau = (mu - 1)^2
  blowup_pushforward   blow up every point of multiplicity >= 3, take
                       the normal-crossing class upstairs, push forward

All four must land on the same integer vector.  A route that does not
apply has no vector and says why it skipped; verify_arrangement compares
the vectors of the routes that ran.  Each route takes the lattice or the
freeness decision it reads and builds neither.
Blow-up centres are integer cross products, so every value here is an int.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .lattice import IntersectionLattice, csm_complement
from .logder import FreenessReport, InternalError, chern_class_free
from .poly import FormalClass, _over_lead

# Largest truncation order n the formal identities accept: products take
# n^2 steps on entries exponential in n, so an unbounded n is an unbounded run.
MAX_ORDER = 100
# Most digits of max(d, e)^(n+1), which bounds every projection entry, so all print as str.
MAX_DIGITS = 4000


def _pencil_ring(m: int, n: int) -> tuple[FormalClass, FormalClass, FormalClass]:
    """1, X and (1 + X)^-1 modulo X^(n+1), once m and n are checked."""
    if m < 2 or not 0 <= n <= MAX_ORDER:
        raise ValueError(f"need m >= 2 and 0 <= n <= {MAX_ORDER}")
    one = FormalClass.one(n)
    x = FormalClass.x(n)
    return one, x, (one + x).inverse()


def verify_pencil_identity(m: int, n: int) -> tuple[bool, FormalClass, FormalClass]:
    """Compare the two classes attached to m hypersurfaces of one pencil.

    With X the common hypersurface class, the CSM side decomposes the
    complement indicator over the divisor and the base locus; the
    derivation side is (1 - (m-2)X)/(1+X)^2.  Both omit the common
    c(TV) factor, which cancels.  Returns (equal, csm side, chern side).
    """
    one, x, inv1 = _pencil_ring(m, n)
    csm_side = one - m * (x * inv1) + (m - 1) * (x * x * inv1 * inv1)
    chern_side = (one - (m - 2) * x) * inv1 * inv1
    return (csm_side == chern_side, csm_side, chern_side)


def verify_pencil_koszul(m: int, n: int) -> tuple[bool, FormalClass]:
    """Koszul route: class of the twisted Jacobian-scheme sheaf.

    The Jacobian scheme of the pencil divisor is resolved by a Koszul
    complex in two twists of the base-locus ideal; twisting by the
    divisor gives c = (1+mX)(1-(m-2)X)/(1+X)^2.  Dividing out c(O(D))
    must reproduce the derivation-side class above.
    """
    one, x, inv1 = _pencil_ring(m, n)
    twisted = (one + m * x) * (one - (m - 2) * x) * inv1 * inv1
    derivation_side = (one - (m - 2) * x) * inv1 * inv1
    ok = twisted * (one + m * x).inverse() == derivation_side
    return (ok, twisted)


class ProjectionCheck(NamedTuple("ProjectionCheck", [
    ("structure_pushed", tuple[int, ...]), ("structure_capped", tuple[int, ...]),
    ("structure_equal", bool), ("transverse_pushed", tuple[int, ...]),
    ("transverse_capped", tuple[int, ...]), ("transverse_equal", bool),
])):
    """Both sides of the projection-formula comparison on P^n.

    X is a degree-d hypersurface, Y a transverse degree-e hypersurface.
    For the non-locally-free sheaf O_X the two sides differ; for the
    pulled-back O_Y they agree.  Vectors are coefficients of powers of
    the hyperplane class h.
    """

    __slots__ = ()

    @property
    def as_expected(self) -> bool:
        return (not self.structure_equal) and self.transverse_equal


def projection_check(d: int, e: int, n: int) -> ProjectionCheck:
    if d < 1 or e < 1 or not 2 <= n <= MAX_ORDER:
        raise ValueError(f"need d >= 1, e >= 1, 2 <= n <= {MAX_ORDER}")
    bound = 10**MAX_DIGITS
    if max(d, e) >= bound or max(d, e) ** (n + 1) >= bound:
        raise ValueError(f"--d/--e too large: max(d, e)^(n+1) has over {MAX_DIGITS} digits")
    one = FormalClass.one(n)
    h = FormalClass.x(n)
    x_cycle = d * h  # i_*[X]

    # O_X: pulled back to X it is trivial, so pushing forward gives d*h;
    # capping c(O_X) = 1/(1 - dh) with i_*[X] downstairs does not.
    structure_pushed = x_cycle
    structure_capped = (one - d * h).inverse() * x_cycle

    # O_Y pulls back to the structure sheaf of the transverse slice;
    # computed on X and pushed forward term by term it matches the cap:
    # e^k h^k cap [X] = d e^k h^(k+1) survives for k <= dim X = n - 1.
    transverse_pushed = FormalClass.make([0] + [d * e**k for k in range(n)], n)
    transverse_capped = (one - e * h).inverse() * x_cycle

    return ProjectionCheck(
        structure_pushed=structure_pushed.coeffs,
        structure_capped=structure_capped.coeffs,
        structure_equal=structure_pushed == structure_capped,
        transverse_pushed=transverse_pushed.coeffs,
        transverse_capped=transverse_capped.coeffs,
        transverse_equal=transverse_pushed == transverse_capped,
    )


class SurfaceClass(
    NamedTuple("SurfaceClass", [("unit", int), ("h", int), ("exc", tuple[int, ...]), ("pt", int)])
):
    """Element of the integer Chow ring of P^2 blown up at len(exc) points."""

    __slots__ = ()

    def __new__(cls, unit: int, h: int, exc: tuple[int, ...], pt: int) -> "SurfaceClass":
        self = super().__new__(cls, unit, h, exc, pt)
        if not all(type(c) is int for c in (unit, h, pt, *exc)):
            raise ValueError(f"{self} is not an integer class")
        return self

    @classmethod
    def make(cls, unit: int = 0, h: int = 0, exc=(), pt: int = 0) -> "SurfaceClass":
        return cls(unit, h, tuple(exc), pt)

    def _check(self, other: "SurfaceClass") -> None:
        if len(self.exc) != len(other.exc):
            raise ValueError("classes live on different blow-ups")

    def __mul__(self, other: "SurfaceClass") -> "SurfaceClass":
        self._check(other)
        # h.h = pt, E_i.E_i = -pt, mixed divisor products vanish,
        # anything of total degree > 2 is zero.
        return SurfaceClass(
            self.unit * other.unit,
            self.unit * other.h + self.h * other.unit,
            tuple(self.unit * b + a * other.unit for a, b in zip(self.exc, other.exc)),
            self.unit * other.pt
            + self.pt * other.unit
            + self.h * other.h
            - sum(a * b for a, b in zip(self.exc, other.exc)),
        )

    def inverse(self) -> "SurfaceClass":
        """(1 + D)^-1 = 1 - D + D.D, as D.D.D = 0; ValueError unless the unit part is 1."""
        if self.unit != 1:
            raise ValueError("inverse needs unit part 1")
        return SurfaceClass(
            1,
            -self.h,
            tuple(-a for a in self.exc),
            self.h * self.h - sum(a * a for a in self.exc) - self.pt,
        )


def pushforward_to_p2(cls: SurfaceClass) -> tuple[int, ...]:
    """Proper pushforward along the blow-down: exceptional parts die."""
    return (cls.unit, cls.h, cls.pt)


class SingularPoint(NamedTuple("SingularPoint", [
    ("coords", tuple[int, ...]), ("multiplicity", int), ("lines", tuple[int, ...]),
])):
    """Ordinary singular point of the line arrangement divisor; coords are primitive ints, lead positive."""

    __slots__ = ()

    def render(self) -> str:
        return f"[{' : '.join(_over_lead(self.coords))}]"


def blowup_centers(lat: IntersectionLattice) -> tuple[SingularPoint, ...]:
    """The points where three or more lines meet, the blow-up centres, as projective points.

    A point is the cross product of its flat's two span rows, made primitive with its lead positive.
    """
    if lat.arrangement.nvars != 3:
        raise ValueError("blow-up centres are for line arrangements in P^2")
    points = []
    for flat in lat.of_codim(2):
        if len(flat.indices) < 3:
            continue
        (a0, a1, a2), (b0, b1, b2) = flat.span
        cross = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
        g = gcd(*cross)
        if not g:
            raise InternalError("internal consistency failure: codim-2 flat is not a point")
        g = g if next(filter(None, cross)) > 0 else -g
        points.append(SingularPoint(tuple(c // g for c in cross), len(flat.indices), flat.indices))
    return tuple(points)


class BlowupRoute(NamedTuple("BlowupRoute", [("cls", SurfaceClass), ("centers", tuple[SingularPoint, ...])])):
    """Normal-crossing class on the blow-up, before pushing forward."""

    __slots__ = ()


def blowup_chern_snc(lat: IntersectionLattice) -> BlowupRoute:
    """Chern class of log derivations along the normal-crossing model.

    Blow up every point where at least three lines meet.  Upstairs the
    total transform (proper transforms plus exceptional curves) is a
    normal-crossing divisor, so the class is c(T V-hat) divided by
    (1 + C) over each component C.
    """
    arr = lat.arrangement
    centers = blowup_centers(lat)
    k = len(centers)
    total = SurfaceClass.make(1, 3, (-1,) * k, 3 + k)  # c(T V-hat)
    for i in range(arr.size):  # proper transform: h minus the E_j it passes through
        exc = [-1 if i in c.lines else 0 for c in centers]
        total = total * SurfaceClass.make(1, 1, exc).inverse()
    for j in range(k):
        exc = [1 if idx == j else 0 for idx in range(k)]
        total = total * SurfaceClass.make(1, 0, exc).inverse()
    return BlowupRoute(cls=total, centers=centers)


def tjurina_route(lat: IntersectionLattice) -> tuple[int, ...]:
    """Surface route through the singular-point correction.

    c(TP^2)/(1 + mh) picks up the full-flag class of the divisor; each
    ordinary point of multiplicity mu contributes a correction of
    (mu - 1)^2 times the point class.  The points are the codimension-2
    flats and mu counts the lines through each, so no coordinates are
    needed.
    """
    arr = lat.arrangement
    if arr.nvars != 3:
        raise ValueError("Tjurina route is for line arrangements in P^2")
    if arr.size < 1:
        raise ValueError("Tjurina route needs at least one line")
    m = arr.size
    tau = sum((len(f.indices) - 1) ** 2 for f in lat.of_codim(2))
    tangent = FormalClass.make([1, 3, 3], 2)
    divisor = FormalClass.make([1, m], 2)
    correction = FormalClass.make([1, 0, -tau], 2)
    return (tangent * divisor.inverse() * correction).coeffs


class Route(NamedTuple("Route", [
    ("name", str), ("vector", tuple[int, ...] | None), ("skipped", str | None), ("evidence", BlowupRoute | None),
])):
    """One route's outcome: its vector, or None and the reason it skipped.

    evidence is the blow-up route's BlowupRoute, None for every other route.
    """

    __slots__ = ()


def _routes(lat: IntersectionLattice, freeness: FreenessReport) -> tuple[Route, ...]:
    """Every route's record on lat and freeness: the one list of routes, in route order."""
    arr = lat.arrangement
    exponent = ("exponent route skipped: not free" if not freeness.free
                else "exponent route skipped: empty arrangement has no Euler slot" if arr.size < 1 else None)
    surface = ("surface routes skipped: not a line arrangement in P^2" if arr.projective_dim != 2
               else "surface routes skipped: empty arrangement" if arr.size < 1 else None)
    blowup = None if surface else blowup_chern_snc(lat)
    return (
        Route("lattice_csm", csm_complement(lat), None, None),
        Route("exponent_product", None if exponent else chern_class_free(freeness), exponent, None),
        Route("tjurina", None if surface else tjurina_route(lat), surface, None),
        Route("blowup_pushforward", None if surface else pushforward_to_p2(blowup.cls), surface, blowup),
    )


class VerificationReport(NamedTuple("VerificationReport", [
    ("routes", tuple[Route, ...]), ("agreements", tuple[tuple[str, str, bool], ...]),
    ("passed", bool), ("freeness", FreenessReport),
])):
    """Outcome of running every route on one arrangement, its Route records in route order."""

    __slots__ = ()


def verify_arrangement(lat: IntersectionLattice, freeness: FreenessReport) -> VerificationReport:
    """Run every route and compare the vectors of those that ran pairwise.

    lat and freeness are the lattice and the freeness decision of one
    arrangement, lat.arrangement.
    """
    routes = _routes(lat, freeness)
    ran = [r for r in routes if r.vector is not None]
    agreements = tuple((a.name, b.name, a.vector == b.vector) for i, a in enumerate(ran) for b in ran[i + 1:])
    return VerificationReport(routes, agreements, all(ok for _, _, ok in agreements), freeness)
