"""Exact truncated class arithmetic and multi-route verification.

Two small exact rings drive everything here.

FormalClass: truncated power series in one divisor variable modulo
X^(n+1), modeling classes on P^n (or formal identities in a divisor X).
Inverses exist whenever the constant term is a unit.

SurfaceClass: the Chow ring of P^2 blown up at k points, with basis
1, h, E_1..E_k, pt and intersection form h.h = pt, E_i.E_i = -pt,
h.E_i = 0, E_i.E_j = 0; products of three divisors vanish.  k = 0 is
the Chow ring of P^2 itself.

On top of these sit the verification routes for the class of the
logarithmic derivation bundle of a projective line arrangement:

  lattice_csm          Mobius inclusion-exclusion over the flats
  exponent_product     free case, product over shifted exponents
  tjurina              c(TP^2) / (1 + mh) corrected by ordinary
                       singular points with tau = (mu - 1)^2
  blowup_pushforward   blow up every point of multiplicity >= 3, take
                       the normal-crossing class upstairs, push forward

All four must land on the same integer vector; verify_arrangement
computes whichever routes apply and compares them.  Each route takes
the lattice or the freeness decision it reads and builds neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import IntersectionLattice, csm_complement
from .linalg import QMatrix
from .logder import FreenessReport, chern_class_free
from .poly import Scalar, render_terms

ROUTE_NAMES = ("lattice_csm", "exponent_product", "tjurina", "blowup_pushforward")


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


def verify_pencil_identity(m: int, n: int) -> tuple[bool, FormalClass, FormalClass]:
    """Compare the two classes attached to m hypersurfaces of one pencil.

    With X the common hypersurface class, the CSM side decomposes the
    complement indicator over the divisor and the base locus; the
    derivation side is (1 - (m-2)X)/(1+X)^2.  Both omit the common
    c(TV) factor, which cancels.  Returns (equal, csm side, chern side).
    """
    if m < 2 or n < 0:
        raise ValueError("need m >= 2 and n >= 0")
    one = FormalClass.one(n)
    x = FormalClass.x(n)
    inv1 = (one + x).inverse()
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
    if m < 2 or n < 0:
        raise ValueError("need m >= 2 and n >= 0")
    one = FormalClass.one(n)
    x = FormalClass.x(n)
    inv1 = (one + x).inverse()
    twisted = (one + m * x) * (one - (m - 2) * x) * inv1 * inv1
    derivation_side = (one - (m - 2) * x) * inv1 * inv1
    ok = twisted * (one + m * x).inverse() == derivation_side
    return (ok, twisted)


@dataclass(frozen=True)
class ProjectionCheck:
    """Both sides of the projection-formula comparison on P^n.

    X is a degree-d hypersurface, Y a transverse degree-e hypersurface.
    For the non-locally-free sheaf O_X the two sides differ; for the
    pulled-back O_Y they agree.  Vectors are coefficients of powers of
    the hyperplane class h.
    """

    structure_pushed: tuple[Fraction, ...]
    structure_capped: tuple[Fraction, ...]
    structure_equal: bool
    transverse_pushed: tuple[Fraction, ...]
    transverse_capped: tuple[Fraction, ...]
    transverse_equal: bool

    @property
    def as_expected(self) -> bool:
        return (not self.structure_equal) and self.transverse_equal


def projection_check(d: int, e: int, n: int) -> ProjectionCheck:
    if d < 1 or e < 1 or n < 2:
        raise ValueError("need d >= 1, e >= 1, n >= 2")
    one = FormalClass.one(n)
    h = FormalClass.x(n)
    x_cycle = d * h  # i_*[X]

    # O_X: pulled back to X it is trivial, so pushing forward gives d*h;
    # capping c(O_X) = 1/(1 - dh) with i_*[X] downstairs does not.
    structure_pushed = x_cycle
    structure_capped = (one - d * h).inverse() * x_cycle

    # O_Y pulls back to the structure sheaf of the transverse slice;
    # computed on X and pushed forward term by term it matches the cap.
    transverse_pushed = FormalClass.make([0], n)
    for k in range(n):  # h^k cap [X] survives for k <= dim X = n - 1
        term = FormalClass.make([0] * (k + 1) + [Fraction(e) ** k * d], n)
        transverse_pushed = transverse_pushed + term
    transverse_capped = (one - e * h).inverse() * x_cycle

    return ProjectionCheck(
        structure_pushed=structure_pushed.coeffs,
        structure_capped=structure_capped.coeffs,
        structure_equal=structure_pushed == structure_capped,
        transverse_pushed=transverse_pushed.coeffs,
        transverse_capped=transverse_capped.coeffs,
        transverse_equal=transverse_pushed == transverse_capped,
    )


@dataclass(frozen=True)
class SurfaceClass:
    """Element of the Chow ring of P^2 blown up at len(exc) points."""

    unit: Fraction
    h: Fraction
    exc: tuple[Fraction, ...]
    pt: Fraction

    @classmethod
    def make(cls, unit: Scalar = 0, h: Scalar = 0, exc=(), pt: Scalar = 0) -> "SurfaceClass":
        return cls(Fraction(unit), Fraction(h), tuple(Fraction(x) for x in exc), Fraction(pt))

    def _check(self, other: "SurfaceClass") -> None:
        if len(self.exc) != len(other.exc):
            raise ValueError("classes live on different blow-ups")

    def __mul__(self, other: "SurfaceClass | Scalar") -> "SurfaceClass":
        if isinstance(other, SurfaceClass):
            self._check(other)
            # h.h = pt, E_i.E_i = -pt, mixed divisor products vanish,
            # anything of total degree > 2 is zero.
            return SurfaceClass(
                self.unit * other.unit,
                self.unit * other.h + self.h * other.unit,
                tuple(
                    self.unit * b + a * other.unit
                    for a, b in zip(self.exc, other.exc)
                ),
                self.unit * other.pt
                + self.pt * other.unit
                + self.h * other.h
                - sum((a * b for a, b in zip(self.exc, other.exc)), Fraction(0)),
            )
        c = Fraction(other)
        return SurfaceClass(
            self.unit * c,
            self.h * c,
            tuple(a * c for a in self.exc),
            self.pt * c,
        )

    def inverse(self) -> "SurfaceClass":
        if not self.unit:
            raise ValueError("inverse needs a unit constant term")
        u = self.unit
        h = -self.h / (u * u)
        exc = tuple(-a / (u * u) for a in self.exc)
        pt = (
            -self.pt / (u * u)
            + (self.h * self.h - sum((a * a for a in self.exc), Fraction(0))) / (u ** 3)
        )
        return SurfaceClass(Fraction(1) / u, h, exc, pt)


def pushforward_to_p2(cls: SurfaceClass) -> tuple[int, ...]:
    """Proper pushforward along the blow-down: exceptional parts die."""
    for c in (cls.unit, cls.h, cls.pt):
        if c.denominator != 1:
            raise RuntimeError("internal consistency failure: non-integral class vector")
    return (int(cls.unit), int(cls.h), int(cls.pt))


@dataclass(frozen=True)
class SingularPoint:
    """Ordinary singular point of the line arrangement divisor."""

    coords: tuple[Fraction, ...]
    multiplicity: int
    lines: tuple[int, ...]

    def render(self) -> str:
        inner = " : ".join(str(c) for c in self.coords)
        return f"[{inner}]"


def singular_points(lat: IntersectionLattice) -> tuple[SingularPoint, ...]:
    """Codimension-2 flats of a line arrangement as projective points."""
    if lat.arrangement.nvars != 3:
        raise ValueError("singular point analysis is for line arrangements in P^2")
    points = []
    for flat in lat.of_codim(2):
        kern = QMatrix(flat.rows, ncols=3).kernel_basis()
        if len(kern) != 1:
            raise RuntimeError("internal consistency failure: codim-2 flat is not a point")
        points.append(
            SingularPoint(
                coords=kern[0],
                multiplicity=len(flat.indices),
                lines=flat.indices,
            )
        )
    return tuple(points)


@dataclass(frozen=True)
class BlowupRoute:
    """Normal-crossing class on the blow-up, before pushing forward."""

    cls: SurfaceClass
    centers: tuple[SingularPoint, ...]


def blowup_chern_snc(lat: IntersectionLattice) -> BlowupRoute:
    """Chern class of log derivations along the normal-crossing model.

    Blow up every point where at least three lines meet.  Upstairs the
    total transform (proper transforms plus exceptional curves) is a
    normal-crossing divisor, so the class is c(T V-hat) divided by
    (1 + C) over each component C.
    """
    arr = lat.arrangement
    if arr.nvars != 3:
        raise ValueError("blow-up route is for line arrangements in P^2")
    pts = singular_points(lat)
    centers = tuple(p for p in pts if p.multiplicity >= 3)
    k = len(centers)
    chern_tangent = SurfaceClass(
        Fraction(1),
        Fraction(3),
        (Fraction(-1),) * k,
        Fraction(3 + k),
    )
    total = chern_tangent
    for i in range(arr.size):
        proper = SurfaceClass(
            Fraction(0),
            Fraction(1),
            tuple(Fraction(-1) if i in c.lines else Fraction(0) for c in centers),
            Fraction(0),
        )
        one_plus = SurfaceClass(Fraction(1), proper.h, proper.exc, proper.pt)
        total = total * one_plus.inverse()
    for j in range(k):
        e_j = tuple(Fraction(1) if idx == j else Fraction(0) for idx in range(k))
        one_plus = SurfaceClass(Fraction(1), Fraction(0), e_j, Fraction(0))
        total = total * one_plus.inverse()
    return BlowupRoute(cls=total, centers=centers)


def tjurina_route(lat: IntersectionLattice) -> tuple[int, ...]:
    """Surface route through the singular-point correction.

    c(TP^2)/(1 + mh) picks up the full-flag class of the divisor; each
    ordinary point of multiplicity mu contributes a correction of
    (mu - 1)^2 times the point class.
    """
    arr = lat.arrangement
    if arr.nvars != 3:
        raise ValueError("Tjurina route is for line arrangements in P^2")
    if arr.size < 1:
        raise ValueError("Tjurina route needs at least one line")
    m = arr.size
    tau = sum((p.multiplicity - 1) ** 2 for p in singular_points(lat))
    tangent = SurfaceClass.make(1, 3, (), 3)
    divisor = SurfaceClass.make(1, m, (), 0)
    correction = SurfaceClass.make(1, 0, (), -tau)
    return pushforward_to_p2(tangent * divisor.inverse() * correction)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of running every applicable route on one arrangement."""

    routes: dict[str, tuple[int, ...] | None]
    agreements: tuple[tuple[str, str, bool], ...]
    passed: bool
    freeness: FreenessReport
    blowup: BlowupRoute | None
    notes: tuple[str, ...]


def verify_arrangement(lat: IntersectionLattice, freeness: FreenessReport) -> VerificationReport:
    """Compute every applicable route and compare them pairwise.

    lat and freeness are the lattice and the freeness decision of one
    arrangement, lat.arrangement.
    """
    arr = lat.arrangement
    notes: list[str] = []
    routes: dict[str, tuple[int, ...] | None] = {name: None for name in ROUTE_NAMES}

    routes["lattice_csm"] = csm_complement(lat)

    if freeness.free and arr.size >= 1:
        routes["exponent_product"] = chern_class_free(freeness)
    elif not freeness.free:
        notes.append("exponent route skipped: not free")
    else:
        notes.append("exponent route skipped: empty arrangement has no Euler slot")

    blowup = None
    if arr.projective_dim == 2:
        if arr.size >= 1:
            routes["tjurina"] = tjurina_route(lat)
            blowup = blowup_chern_snc(lat)
            routes["blowup_pushforward"] = pushforward_to_p2(blowup.cls)
        else:
            notes.append("surface routes skipped: empty arrangement")
    else:
        notes.append("surface routes skipped: not a line arrangement in P^2")

    available = [name for name in ROUTE_NAMES if routes[name] is not None]
    agreements = tuple(
        (a, b, routes[a] == routes[b])
        for i, a in enumerate(available)
        for b in available[i + 1:]
    )
    passed = all(ok for _, _, ok in agreements)
    return VerificationReport(
        routes=routes,
        agreements=agreements,
        passed=passed,
        freeness=freeness,
        blowup=blowup,
        notes=tuple(notes),
    )
