"""Logarithmic derivations of an arrangement, freeness, Chern classes.

A polynomial vector field theta = sum theta_j d/dx_j is logarithmic for
the arrangement when theta(alpha) lies in the ideal (alpha) for every
defining form alpha.  The degree of a derivation is the common total
degree of its coefficient polynomials, so the Euler field sum x_j d/dx_j
has degree 1 and constant fields have degree 0.

Freeness is decided by Saito's criterion: hunt for n+1 minimal
generators by exact kernel computations degree by degree, then test
whether their coefficient determinant is a nonzero scalar multiple of
the defining polynomial (exact division, no factorization).  The search
never needs degrees beyond the number of hyperplanes: a free module's
exponents are nonnegative and sum to that number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arrangement import Arrangement, LinearForm
from .linalg import IncrementalSpan, QMatrix, intersect_spans, poly_det, rref_rows
from .poly import (
    Monomial,
    MultiPoly,
    monomials_of_degree,
    poly_divmod,
    reduce_mod_linear,
)


@dataclass(frozen=True)
class Derivation:
    """Homogeneous vector field; coeffs[j] multiplies d/dx_j."""

    coeffs: tuple[MultiPoly, ...]
    degree: int

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    def apply_to_form(self, form: LinearForm) -> MultiPoly:
        """theta(alpha) for a linear form: sum of lambda_j * theta_j."""
        out = MultiPoly.zero(self.nvars)
        for lam, c in zip(form.coeffs, self.coeffs):
            if lam:
                out = out + c.scale(lam)
        return out

    def apply_to_poly(self, f: MultiPoly) -> MultiPoly:
        out = MultiPoly.zero(self.nvars)
        for j, c in enumerate(self.coeffs):
            if not c.is_zero():
                out = out + c * f.derivative(j)
        return out

    def scaled_by_monomial(self, mono: Monomial) -> "Derivation":
        m = MultiPoly(self.nvars, {mono: Fraction(1)})
        return Derivation(
            coeffs=tuple(c * m for c in self.coeffs),
            degree=self.degree + sum(mono),
        )

    def render(self) -> str:
        pieces = [
            f"({c.render()})*d/dx{j}" for j, c in enumerate(self.coeffs) if not c.is_zero()
        ]
        return " + ".join(pieces) if pieces else "0"


def _columns(nvars: int, monos: list[Monomial]) -> list[tuple[int, Monomial]]:
    return [(j, m) for j in range(nvars) for m in monos]


def derivation_to_vector(der: Derivation, monos: list[Monomial]) -> tuple[Fraction, ...]:
    return tuple(der.coeffs[j].coefficient(m) for j in range(der.nvars) for m in monos)


def vector_to_derivation(vec, nvars: int, degree: int, monos: list[Monomial]) -> Derivation:
    coeffs = []
    per = len(monos)
    for j in range(nvars):
        terms = {}
        for k, m in enumerate(monos):
            c = vec[j * per + k]
            if c:
                terms[m] = c
        coeffs.append(MultiPoly(nvars, terms))
    return Derivation(coeffs=tuple(coeffs), degree=degree)


def _degree_kernel(arr: Arrangement, d: int, monos: list[Monomial]) -> list[tuple[Fraction, ...]]:
    """Kernel vectors spanning D(A)_d in the (variable, monomial) layout."""
    n1 = arr.nvars
    cols = _columns(n1, monos)
    rows: list[list[Fraction]] = []
    for form in arr.forms:
        fp = form.poly()
        pivot = next(i for i, c in enumerate(form.coeffs) if c)
        residues = {m: reduce_mod_linear(MultiPoly(n1, {m: Fraction(1)}), fp) for m in monos}
        targets = [m for m in monos if m[pivot] == 0]
        for t in targets:
            rows.append([form.coeffs[j] * residues[m].coefficient(t) for (j, m) in cols])
    return QMatrix(rows, ncols=len(cols)).kernel_basis()


def log_derivation_space(arr: Arrangement, d: int) -> list[Derivation]:
    """Deterministic basis of the degree-d logarithmic derivations."""
    if d < 0:
        return []
    monos = monomials_of_degree(arr.nvars, d)
    return [
        vector_to_derivation(v, arr.nvars, d, monos)
        for v in _degree_kernel(arr, d, monos)
    ]


def degree_dimension(arr: Arrangement, d: int) -> int:
    if d < 0:
        return 0
    monos = monomials_of_degree(arr.nvars, d)
    return len(_degree_kernel(arr, d, monos))


def is_logarithmic(der: Derivation, arr: Arrangement) -> bool:
    """Per-form membership test: theta(alpha) reduces to 0 mod alpha."""
    for form in arr.forms:
        value = der.apply_to_form(form)
        if value.is_zero():
            continue
        if not reduce_mod_linear(value, form.poly()).is_zero():
            return False
    return True


def is_logarithmic_for_polynomial(der: Derivation, f: MultiPoly) -> bool:
    """Divisibility test theta(f) in (f) for an arbitrary polynomial f."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    value = der.apply_to_poly(f)
    if value.is_zero():
        return True
    return poly_divmod(value, f)[1].is_zero()


def intersection_property_check(arr: Arrangement, d: int) -> bool:
    """D(A)_d equals the intersection of the single-hyperplane spaces.

    The left side stacks all constraints at once; the right side solves
    each hyperplane separately and intersects the resulting subspaces,
    so the two routes share no linear algebra.
    """
    if arr.size == 0:
        return True
    monos = monomials_of_degree(arr.nvars, d)
    dim = arr.nvars * len(monos)
    lhs = rref_rows(_degree_kernel(arr, d, monos))
    current = None
    for i in range(arr.size):
        single = _degree_kernel(arr.single(i), d, monos)
        if current is None:
            current = rref_rows(single)
        else:
            current = intersect_spans(current, single, dim)
    return lhs == current


@dataclass
class GradedBasis:
    """Degree-by-degree picture of D(A) up to the search bound."""

    dimensions: dict[int, int]
    generators: tuple[Derivation, ...]
    exit_reason: str
    search_log: tuple[str, ...]

    @property
    def generator_degrees(self) -> tuple[int, ...]:
        return tuple(g.degree for g in self.generators)


def minimal_generators(arr: Arrangement) -> GradedBasis:
    """Minimal homogeneous generators of D(A), searched through degree |A|.

    At each degree the span of monomial multiples of earlier generators
    is built first; new generators are an echelon-canonical complement
    basis inside the degree-d kernel.  Early exits: more than n+1
    generators (never free), or exactly n+1 with degree sum |A| (Saito
    candidate found).
    """
    n1 = arr.nvars
    m = arr.size
    gens: list[Derivation] = []
    dims: dict[int, int] = {}
    log: list[str] = []
    exit_reason = "exhausted"
    for d in range(m + 1):
        monos = monomials_of_degree(n1, d)
        kernel = _degree_kernel(arr, d, monos)
        dims[d] = len(kernel)
        span = IncrementalSpan(n1 * len(monos))
        for g in gens:
            for mono in monomials_of_degree(n1, d - g.degree):
                span.add(derivation_to_vector(g.scaled_by_monomial(mono), monos))
        fresh = 0
        for v in kernel:
            residue = span.add(v)
            if residue is not None:
                gens.append(vector_to_derivation(residue, n1, d, monos))
                fresh += 1
        log.append(f"degree {d}: dim {dims[d]}, {fresh} new generator(s), total {len(gens)}")
        if len(gens) > n1:
            exit_reason = "overflow"
            log.append(
                f"stopped at degree {d}: {len(gens)} generators exceed the rank bound {n1}"
            )
            break
        if len(gens) == n1 and sum(g.degree for g in gens) == m:
            exit_reason = "complete"
            log.append(
                f"stopped at degree {d}: {n1} generators with degree sum {m}"
            )
            break
    else:
        log.append(f"search exhausted degrees 0..{m}")
    return GradedBasis(
        dimensions=dims,
        generators=tuple(gens),
        exit_reason=exit_reason,
        search_log=tuple(log),
    )


@dataclass(frozen=True)
class FreenessReport:
    free: bool
    exponents: tuple[int, ...] | None
    saito_scalar: Fraction | None
    generators: tuple[Derivation, ...]
    reason: str | None
    search_log: tuple[str, ...]


def decide_freeness(arr: Arrangement, graded: GradedBasis) -> FreenessReport:
    """Saito's criterion on the generators that minimal_generators(arr) found."""
    log = list(graded.search_log)
    n1 = arr.nvars
    m = arr.size
    gens = graded.generators

    def failed(reason: str) -> FreenessReport:
        log.append(f"not free: {reason}")
        return FreenessReport(
            free=False,
            exponents=None,
            saito_scalar=None,
            generators=gens,
            reason=reason,
            search_log=tuple(log),
        )

    if graded.exit_reason == "overflow":
        return failed(
            f"needs {len(gens)} minimal generators, more than the rank bound {n1}"
        )
    if len(gens) != n1:
        return failed(
            f"found {len(gens)} minimal generators through degree {m}, expected {n1}"
        )
    degrees = sorted(g.degree for g in gens)
    if sum(degrees) != m:
        return failed(
            f"generator degrees {tuple(degrees)} sum to {sum(degrees)}, not {m}"
        )
    q_poly = arr.defining_polynomial()
    det = poly_det([[g.coeffs[j] for j in range(n1)] for g in gens])
    if det.is_zero():
        return failed("Saito determinant vanishes")
    quotient, remainder = poly_divmod(det, q_poly)
    if not remainder.is_zero() or quotient.degree() != 0:
        return failed("Saito determinant is not a scalar multiple of the defining polynomial")
    scalar = quotient.coefficient((0,) * n1)
    log.append(f"free: Saito determinant = {scalar} * defining polynomial")
    return FreenessReport(
        free=True,
        exponents=tuple(degrees),
        saito_scalar=scalar,
        generators=gens,
        reason=None,
        search_log=tuple(log),
    )


def chern_class_free(freeness: FreenessReport) -> tuple[int, ...]:
    """Chern class of the projective log-derivation bundle of a free arrangement.

    With central exponents e_0 <= ... <= e_n, one exponent equal to 1 is
    consumed by the Euler field; the remaining n exponents give the
    truncated product of (1 + (1 - e) h) in A_*(P^n).
    """
    if not freeness.free:
        raise ValueError("arrangement is not free")
    exps = list(freeness.exponents)
    n = len(exps) - 1
    if 1 not in exps:
        raise RuntimeError(
            "internal consistency failure: free exponents contain no Euler slot"
        )
    exps.remove(1)
    out = [Fraction(0)] * (n + 1)
    out[0] = Fraction(1)
    for e in exps:
        shift = 1 - e
        nxt = list(out)
        for i in range(1, n + 1):
            nxt[i] = out[i] + shift * out[i - 1]
        out = nxt
    if any(c.denominator != 1 for c in out):
        raise RuntimeError("internal consistency failure: non-integral Chern class")
    return tuple(int(c) for c in out)
