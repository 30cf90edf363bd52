"""Seeded inputs for the benchmark, each with invariants known in closed form.

Every input is a central arrangement whose matroid is fixed by its family,
so its characteristic polynomial, freeness, exponents and number of flats
follow from the family alone; the seed only moves the coefficients the
exact arithmetic works on.

- generic: rows (1, t, t^2, ..., t^n) on the moment curve.  Any nvars of
  them form a Vandermonde matrix with distinct nodes, so every
  nvars-subset is independent (the uniform matroid).
- near-pencil: m - 1 lines (0, 1, s) through [1 : 0 : 0] with distinct
  slopes s, plus the line x0 = 0, which misses that point.
- braid A_k: the forms x_i - x_j, 0 <= i < j <= k, in k + 1 coordinates.

The seed picks only signs; magnitudes and row order are fixed (t in
+-{1..m}, slopes in {0} and +-{1..m-2}).  Near-pencils and braids then
get a seeded diagonal change of coordinates x_j -> +-x_j, an integer
change of coordinates with determinant +-1, which keeps the matroid.
Measured on a near-pencil of 10 lines, this keeps the cost of one job
within a few percent across seeds; a seeded permutation of the
coordinates moved it between 0.39 and 0.92 s, and one elementary shear
between 0.87 and 5.1 s, which would swamp any run-to-run bound.
Signs alone still move a generic job by about 20%, so every pass of a
run draws fresh inputs (see jobs()) and a run averages over the draws.

All entries of the inputs that meet the point-count oracle (p = 101,
103) are integers below 101 in absolute value, leading coefficients are
+-1 and differences of distinct parameters stay below 101, so the
arrangement keeps its matroid mod p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from pathlib import Path


@dataclass(frozen=True)
class Case:
    """One generated .arr input and the invariants its output must satisfy."""

    name: str
    nvars: int
    rows: tuple[tuple[int, ...], ...]
    charpoly: tuple[int, ...]  # ascending coefficients of chi(t)
    free: bool
    exponents: tuple[int, ...] | None  # sorted, when free
    num_flats: int

    def text(self) -> str:
        body = "\n".join(" ".join(str(c) for c in row) for row in self.rows)
        return f"# {self.name}\nvars {self.nvars}\n{body}\n"

    def write(self, directory: Path) -> Path:
        path = directory / f"{self.name}.arr"
        path.write_text(self.text(), encoding="utf-8")
        return path


def poly_from_roots(roots) -> tuple[int, ...]:
    """Ascending coefficients of prod (t - r)."""
    coeffs = [1]
    for r in roots:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] -= c * r
        coeffs = nxt
    return tuple(coeffs)


def generic_charpoly(nvars: int, m: int) -> tuple[int, ...]:
    """chi(t) of m hyperplanes in general position in k^nvars, m >= nvars.

    Every i-subset with i < nvars is a flat of codimension i with
    mu = (-1)^i; the origin's mu makes chi(1) = 0.
    """
    coeffs = [0] * (nvars + 1)
    for i in range(nvars):
        coeffs[nvars - i] = (-1) ** i * comb(m, i)
    coeffs[0] = -sum(coeffs)
    return tuple(coeffs)


def bell(n: int) -> int:
    """Number of set partitions of an n-set (Bell triangle)."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def _signed(rng: random.Random, magnitudes) -> list[int]:
    """The magnitudes, in order, with seeded signs."""
    return [k * rng.choice((-1, 1)) for k in magnitudes]


def sign_change(rng: random.Random, n: int) -> list[list[int]]:
    """Seeded n x n diagonal matrix of +-1 (determinant +-1)."""
    return [[rng.choice((-1, 1)) if i == j else 0 for j in range(n)] for i in range(n)]


def transform(rows, u: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Row forms alpha mapped to alpha * u (a change of coordinates)."""
    n = len(u)
    return tuple(
        tuple(sum(row[i] * u[i][j] for i in range(n)) for j in range(n)) for row in rows
    )


def generic(rng: random.Random, nvars: int, m: int) -> Case:
    if m <= nvars or nvars < 3:
        raise ValueError("generic family needs m > nvars >= 3 so that it is not free")
    ts = _signed(rng, range(1, m + 1))
    return Case(
        name=f"generic_p{nvars - 1}_m{m}",
        nvars=nvars,
        rows=tuple(tuple(t**k for k in range(nvars)) for t in ts),
        charpoly=generic_charpoly(nvars, m),
        free=False,
        exponents=None,
        num_flats=sum(comb(m, i) for i in range(nvars)) + 1,
    )


def near_pencil(rng: random.Random, m: int) -> Case:
    if m < 4:
        raise ValueError("near-pencil needs at least 4 lines")
    rows = [(0, 1, s) for s in [0] + _signed(rng, range(1, m - 1))] + [(1, 0, 0)]
    return Case(
        name=f"near_pencil_m{m}",
        nvars=3,
        rows=transform(rows, sign_change(rng, 3)),
        charpoly=poly_from_roots((1, 1, m - 2)),
        free=True,
        exponents=(1, 1, m - 2),
        # ambient, m lines, the pencil point, m - 1 double points, origin
        num_flats=2 * m + 2,
    )


def braid(rng: random.Random, k: int) -> Case:
    nvars = k + 1
    rows = [
        tuple((1 if c == i else -1 if c == j else 0) for c in range(nvars))
        for i in range(nvars)
        for j in range(i + 1, nvars)
    ]
    return Case(
        name=f"braid_a{k}",
        nvars=nvars,
        rows=transform(rows, sign_change(rng, nvars)),
        charpoly=poly_from_roots(range(nvars)),
        free=True,
        exponents=tuple(range(nvars)),
        num_flats=bell(nvars),
    )


# The corpus files, with invariants worked out by hand from their forms:
# (nvars, chi ascending, free, exponents, number of flats).
CORPUS = {
    "boolean_triangle": (3, poly_from_roots((1, 1, 1)), True, (1, 1, 1), 8),
    "braid_essential": (3, poly_from_roots((1, 2, 3)), True, (1, 2, 3), 15),
    "four_generic": (3, generic_charpoly(3, 4), False, None, 12),
    "generic5_p3": (4, generic_charpoly(4, 5), False, None, 27),
    "near_pencil_4": (3, poly_from_roots((1, 1, 2)), True, (1, 1, 2), 10),
    "near_pencil_5": (3, poly_from_roots((1, 1, 3)), True, (1, 1, 3), 12),
    "near_pencil_6": (3, poly_from_roots((1, 1, 4)), True, (1, 1, 4), 14),
    "tetrahedron_p3": (4, poly_from_roots((1, 1, 1, 1)), True, (1, 1, 1, 1), 16),
    "three_concurrent": (3, poly_from_roots((0, 1, 2)), True, (0, 1, 2), 5),
    "three_generic": (3, poly_from_roots((1, 1, 1)), True, (1, 1, 1), 8),
    "two_lines": (3, poly_from_roots((0, 1, 1)), True, (0, 1, 1), 4),
}


def corpus_case(path: Path) -> Case:
    """A corpus file as a Case; its invariants come from the table above."""
    nvars, chi, free, exps, flats = CORPUS[path.stem]
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line and not line.startswith("vars"):
            rows.append(tuple(int(tok) for tok in line.split()))
    return Case(path.stem, nvars, tuple(rows), chi, free, exps, flats)


@dataclass(frozen=True)
class Job:
    """One call to arrcsm.cli.run: a subcommand with its flags on one input."""

    command: str
    case: Case
    primes: tuple[int, ...] = ()

    def argv(self, path: Path) -> list[str]:
        argv = [self.command, "--input", str(path), "--json"]
        if self.primes:
            argv += ["--primes", ",".join(str(p) for p in self.primes)]
        return argv

    @property
    def label(self) -> str:
        return f"{self.command}:{self.case.name}"


WORKLOADS = ("search", "lattice", "report")
REPORT_PRIMES = (101, 103)


def jobs(workload: str, seed: int, corpus_dir: Path, rep: int = 0) -> list[Job]:
    """The job list of one workload for pass `rep`.

    Commands, families and sizes are fixed; the coefficients come from
    (seed, rep), so each pass of a run sees fresh inputs and the cost of
    one unlucky draw is averaged over the passes.
    """
    rng = random.Random(f"{workload}:{seed}:{rep}")
    if workload == "search":
        cases = [generic(rng, 3, m) for m in (5, 6, 7)]
        cases += [near_pencil(rng, m) for m in range(6, 11)]
        cases += [braid(rng, 3), generic(rng, 4, 6)]
        return [Job("verify", c) for c in cases]
    if workload == "lattice":
        cases = [generic(rng, 3, m) for m in (12, 16, 20)]
        cases += [generic(rng, 4, m) for m in (8, 10, 12)]
        cases += [braid(rng, 4), braid(rng, 5)]
        # the three commands cycle over the inputs from one pass to the next
        commands = ("csm", "charpoly", "lattice")
        return [Job(commands[(i + rep) % 3], c) for i, c in enumerate(cases)]
    if workload == "report":
        paths = sorted(corpus_dir.glob("*.arr"))
        if {p.stem for p in paths} != set(CORPUS):
            raise FileNotFoundError(f"{corpus_dir} does not hold the expected corpus files")
        cases = [corpus_case(p) for p in paths]
        cases += [near_pencil(rng, 8), braid(rng, 3), generic(rng, 3, 6)]
        return [Job("report", c, REPORT_PRIMES) for c in cases]
    raise ValueError(f"unknown workload {workload!r}")
