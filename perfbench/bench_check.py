"""Output check that does not depend on the program under test.

Each job's stdout is parsed as JSON and compared with the invariants its
input was generated with.  Everything expected is computed here from the
closed forms in bench_inputs; nothing is taken from arrcsm.
"""

from __future__ import annotations

import json
from math import comb

from bench_inputs import Case, Job


def eval_poly(coeffs, t: int) -> int:
    return sum(c * t**i for i, c in enumerate(coeffs))


def reduced(chi: tuple[int, ...]) -> tuple[int, ...]:
    """chi(t) / (t - 1) by synthetic division; chi(1) must be 0."""
    if eval_poly(chi, 1) != 0:
        raise ValueError("chi(1) != 0")
    out = [0] * (len(chi) - 1)
    carry = 0
    for i in range(len(chi) - 1, 0, -1):
        carry += chi[i]
        out[i - 1] = carry
    return tuple(out)


def expected_csm(case: Case) -> list[int]:
    """CSM vector of the complement from chi alone.

    A flat of dimension k (k >= 1) is a P^(k-1) whose Chern class
    (1 + h)^k lands in codimension nvars - k, so entry j collects
    a_k * C(k, j + k - nvars), where a_k is the coefficient of t^k in chi.
    """
    n1 = case.nvars
    return [
        sum(a * comb(k, j + k - n1) for k, a in enumerate(case.charpoly) if k >= 1 and j + k - n1 >= 0)
        for j in range(n1)
    ]


def _charpoly_from_flats(flats, nvars: int) -> list[int]:
    coeffs = [0] * (nvars + 1)
    for f in flats:
        coeffs[nvars - f["codim"]] += f["mu"]
    return coeffs


def _check_lattice(result: dict, case: Case, out: list[str]) -> None:
    if result["num_flats"] != case.num_flats or len(result["flats"]) != case.num_flats:
        out.append(f"num_flats {result['num_flats']} != {case.num_flats}")
    chi = _charpoly_from_flats(result["flats"], case.nvars)
    if chi != list(case.charpoly):
        out.append(f"chi from flats {chi} != {list(case.charpoly)}")


def _check_charpoly(result: dict, case: Case, out: list[str]) -> None:
    if result["ascending_coeffs"] != list(case.charpoly):
        out.append(f"charpoly {result['ascending_coeffs']} != {list(case.charpoly)}")
    if result["reduced_ascending_coeffs"] != list(reduced(case.charpoly)):
        out.append("reduced charpoly differs")


def _check_csm(result: dict, case: Case, out: list[str]) -> None:
    if result["vector"] != expected_csm(case):
        out.append(f"csm {result['vector']} != {expected_csm(case)}")


def _check_freeness(free, exponents, case: Case, out: list[str]) -> None:
    if free is not case.free:
        out.append(f"free {free} != {case.free}")
    want = list(case.exponents) if case.exponents is not None else None
    if exponents != want:
        out.append(f"exponents {exponents} != {want}")


def _check_verify(result: dict, case: Case, out: list[str]) -> None:
    if result["passed"] is not True:
        out.append("verification did not pass")
    _check_freeness(result["free"], result["exponents"], case, out)
    if result["routes"]["lattice_csm"] != expected_csm(case):
        out.append("lattice_csm route differs from the closed form")


def _check_oracle(result: dict, case: Case, primes, out: list[str]) -> None:
    chi_bar = reduced(case.charpoly)
    counts = {c["prime"]: c["count"] for c in result["checks"]}
    if sorted(counts) != sorted(primes):
        out.append(f"oracle primes {sorted(counts)} != {sorted(primes)}")
    for p in primes:
        if counts.get(p) != eval_poly(chi_bar, p):
            out.append(f"oracle count at {p}: {counts.get(p)} != {eval_poly(chi_bar, p)}")
    if result["all_match"] is not True:
        out.append("oracle all_match is not true")


def check_output(job: Job, code: int, stdout: str) -> list[str]:
    """Problems found in one job's result; empty when it is correct."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(stdout)
        if doc["command"] != job.command:
            return [f"command {doc['command']!r} != {job.command!r}"]
        result = doc["result"]
        case = job.case
        out: list[str] = []
        if doc["arrangement"]["num_forms"] != len(case.rows):
            out.append("hyperplane count differs")
        if job.command == "lattice":
            _check_lattice(result, case, out)
        elif job.command == "charpoly":
            _check_charpoly(result, case, out)
        elif job.command == "csm":
            _check_csm(result, case, out)
        elif job.command == "verify":
            _check_verify(result, case, out)
        elif job.command == "report":
            _check_lattice(result["lattice"], case, out)
            _check_charpoly(result["charpoly"], case, out)
            _check_csm(result["csm"], case, out)
            _check_freeness(result["freeness"]["free"], result["freeness"]["exponents"], case, out)
            _check_verify(result["verification"], case, out)
        else:
            out.append(f"no check for command {job.command!r}")
        if job.primes:
            _check_oracle(result["oracle"], case, job.primes, out)
        return out
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
