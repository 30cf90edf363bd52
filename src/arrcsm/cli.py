"""Command-line front end.

Subcommands operate on .arr files (or pure parameters) and print either
a human-readable text report or, with --json, a schema-stable JSON
document.  JSON output is key-sorted and contains nothing run-dependent,
so two runs on the same input are byte-identical; wall-clock timing only
ever appears in text output.  _json writes it piece by piece, never
holding the whole output, byte for byte as json.dumps(sort_keys=True,
indent=2) writes the payloads' str, int, bool, None, dict, list and
tuple values.  A result holds the tuples the stages return, uncopied;
_json writes a tuple as a list, and the text renderers as a tuple.  The
lattice result holds the lattice's Flat records, which _json writes by
one template and _lattice_text reads; each basis is rendered from its
integer span, each distinct span row once per output.  A run makes a
Fraction only for Saito's scalar or a non-integer input token.

Each subcommand is one entry of COMMANDS: a handler that computes only
the stages its command reads, each of them once (report builds one
lattice and runs one derivation search), and returns the JSON result
with the exit code; a text renderer that prints the report from that
result alone; and its help and arguments, from which _build_parser
makes the parser (for a named subcommand, that subcommand's alone).
Only the handlers, corpus_runner and _search call build_lattice,
minimal_generators and decide_freeness; every stage in lattice, logder
and chow takes the results it reads.  run() does the shared work once:
parse the .arr file of a subcommand that takes _INPUT, print warnings,
emit JSON, turn errors into exit codes.

Every search for derivations goes through _search, which solves only
chi's roots when chi splits over the nonnegative integers, and returns
Saito's FreenessReport, which holds the walk it judged as its search.
freeness, derivations and report search D(A) in input coordinates, whose
generators and log they print; verify and corpus search D_0(A) in
coordinates adapted to A (_guided_freeness).

Exit codes: 0 success / verified, 1 a verification failed, 2 input error
or a stdout closed before the output was written, 3 internal error (an
InternalError: a consistency check inside arrcsm failed).  corpus gives
each file the status STATUSES names for the code verify would give it.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import __version__
from .arrangement import Arrangement, parse_file
from .chow import (
    BlowupRoute,
    VerificationReport,
    projection_check,
    verify_arrangement,
    verify_pencil_identity,
    verify_pencil_koszul,
)
from .lattice import (
    Flat,
    IntersectionLattice,
    build_lattice,
    char_poly,
    check_oracle_prime,
    csm_complement,
    integer_roots,
    point_count_oracle,
    poly_eval_int,
    reduced_char_poly,
    render_poly_in_t,
)
from .logder import (
    FreenessReport,
    InternalError,
    decide_freeness,
    degree_dimension,
    free_dimension,
    minimal_generators,
)
from .poly import FormalClass, _over_lead

# Largest --max-degree: the table has one entry, and a non-free A one kernel, per degree.
MAX_DEGREE = 100

# the status corpus gives a file, indexed by the exit code verify gives it
STATUSES = ("pass", "fail", "error", "internal_error")


def _arrangement_payload(arr: Arrangement) -> dict:
    rank = arr.rank()
    return {
        "name": arr.name,
        "variables": arr.nvars,
        "projective_dim": arr.projective_dim,
        "num_forms": arr.size,
        "rank": rank,
        "essential": rank == arr.nvars,
        "forms": [_over_lead(f.coeffs) for f in arr.forms],
        "warnings": arr.warnings,
    }


def _lattice_payload(lat: IntersectionLattice) -> dict:
    """The flats as the lattice's Flat records, which _json writes and _lattice_text reads."""
    return {"num_flats": lat.size(), "flats": lat.flats}


def _charpoly_payload(lat: IntersectionLattice) -> dict:
    """chi(A, t), and chi(A, t) / (t - 1) but for the empty arrangement."""
    chi = char_poly(lat)
    reduced = reduced_char_poly(lat) if lat.arrangement.size >= 1 else None
    return {
        "ascending_coeffs": chi,
        "rendered": render_poly_in_t(chi),
        "reduced_ascending_coeffs": reduced,
        "reduced_rendered": render_poly_in_t(reduced) if reduced is not None else None,
    }


def _csm_payload(vec: tuple[int, ...]) -> dict:
    """vec, a class in A_*(P^n) by codimension, with its basis labels [P^n], ..., [P^0]."""
    n = len(vec) - 1
    return {
        "vector": vec,
        "basis_labels": [f"[P^{n - j}]" for j in range(n + 1)],
        "euler_characteristic": vec[-1],
    }


def _derivations_payload(arr: Arrangement, freeness: FreenessReport, max_degree: int, generators: list[str]) -> dict:
    """_search's full-walk dimensions, and past its stop those of D(A) = sum_i S(-e_i) when A is free.

    A non-free A solves one kernel for each degree past the stop.
    generators are the walk's generators rendered, which report shares
    with _freeness_payload.
    """
    gb = freeness.search

    def dimension(d: int) -> int:
        if d in gb.dimensions:
            return gb.dimensions[d]
        if freeness.free:
            return free_dimension(freeness.exponents, arr.projective_dim, d)
        return degree_dimension(arr, d, gb.generators)

    dims = [[d, dimension(d)] for d in range(max_degree + 1)]
    return {
        "dims": dims,
        "generator_degrees": gb.generator_degrees,
        "generators": generators,
        "exit_reason": gb.exit_reason,
        "search_log": gb.search_log,
    }


def _freeness_payload(rep: FreenessReport, generators: list[str]) -> dict:
    """rep's decision, its Saito scalar as a string, and its walk's generators rendered and log with the verdict."""
    return {
        "free": rep.free,
        "exponents": rep.exponents,
        "saito_scalar": str(rep.saito_scalar) if rep.saito_scalar is not None else None,
        "reason": rep.reason,
        "generators": generators,
        "search_log": (*rep.search.search_log, rep.verdict),
    }


def _blowup_payload(blowup: BlowupRoute | None) -> dict | None:
    if blowup is None:
        return None
    cls = blowup.cls
    points = [center.render() for center in blowup.centers]
    return {
        "unit": cls.unit,
        "h": cls.h,
        "exceptional": tuple(zip(points, cls.exc)),
        "pt": cls.pt,
        "centers": [
            {
                "point": point,
                "multiplicity": center.multiplicity,
                "lines": center.lines,
            }
            for point, center in zip(points, blowup.centers)
        ],
    }


def _verify_payload(vr: VerificationReport) -> dict:
    """vr's routes, with their skip reasons once each and the blow-up route's evidence."""
    blowup = next((r.evidence for r in vr.routes if isinstance(r.evidence, BlowupRoute)), None)
    return {
        "routes": {route.name: route.vector for route in vr.routes},
        "agreements": vr.agreements,
        "passed": vr.passed,
        "notes": tuple(dict.fromkeys(route.skipped for route in vr.routes if route.skipped)),
        "free": vr.freeness.free,
        "exponents": vr.freeness.exponents,
        "blowup_class": _blowup_payload(blowup),
    }


def _search(arr: Arrangement, roots: tuple[int, ...] | None, d0: bool = False) -> FreenessReport:
    """Saito's decision on the full walk of D(A) (of D_0(A) with d0), which it holds, from chi's roots when it can.

    roots are chi's nonnegative integer roots, None when chi does not
    split so.  The walk on them (minimal_generators' roots) stands on a
    free verdict alone; any other verdict, or roots None, runs the full
    walk.  The verdict is never read off chi.
    """
    if roots is not None:
        report = decide_freeness(arr, minimal_generators(arr, roots=roots, d0=d0))
        if report.free:
            return report
    return decide_freeness(arr, minimal_generators(arr, d0=d0))


def _guided_freeness(arr: Arrangement, lat: IntersectionLattice) -> FreenessReport:
    """Saito's decision on A', A in coordinates adapted to it, with the exponents of A.

    The search runs on A' = arr.adapted(): its first rank A independent
    forms are coordinate hyperplanes there, which cost the kernels no
    rows, and the exponents of A are those of A' and n+1-r zeros for the
    lineality space.  The first form is x'_0, so _search runs on D_0(A')
    (minimal_generators with d0) and walks the roots of
    chi(A', t) / (t - 1) = chi(A, t) / (t^(n+1-r) (t - 1)), the exponents
    of a free D_0(A'): those of A' but one 1.  The report is that of the
    full walk of D_0(A'), which it holds as its search.  The empty A' has
    no x'_0: the full walk of D(A').
    """
    adapted, lineality = arr.adapted()
    roots = integer_roots(reduced_char_poly(lat)) if adapted.size else None
    report = _search(adapted, None if roots is None else roots[lineality:], d0=bool(adapted.size))
    if report.free:
        report = report._replace(exponents=(0,) * lineality + report.exponents)
    return report


def corpus_runner(directory: Path) -> tuple[dict, int]:
    """Verify every .arr file in a directory; summary payload and exit code.

    Each file gets the code verify would exit with on it and the status
    STATUSES names for it; num_error counts codes 2 and 3, and the
    directory's code is the largest file code, 0 when it has no file.
    ValueError when directory is not a directory.
    """
    if not directory.is_dir():
        raise ValueError(f"{directory} is not a directory")
    entries, codes = [], []
    for path in sorted(directory.glob("*.arr")):
        try:
            arr = parse_file(path)
            lat = build_lattice(arr)
            vr = verify_arrangement(lat, _guided_freeness(arr, lat))
        except (OSError, ValueError) as exc:  # ParseError is a ValueError
            code, detail = 2, {"message": str(exc)}
        except InternalError as exc:
            code, detail = 3, {"message": str(exc)}
        else:
            code, detail = (0 if vr.passed else 1), {"routes": {r.name: r.vector for r in vr.routes}}
        codes.append(code)
        entries.append({"file": path.name, "status": STATUSES[code], **detail})
    payload = {
        "directory": directory.name,
        "entries": entries,
        "num_pass": codes.count(0),
        "num_fail": codes.count(1),
        "num_error": codes.count(2) + codes.count(3),
    }
    return payload, max(codes, default=0)


def _parse_primes(spec: str | None, arr: Arrangement) -> list[int]:
    """The --primes list, each prime once in first-seen order, checked before any stage runs."""
    if spec is None:
        return []
    try:
        primes = list(dict.fromkeys(int(tok) for tok in spec.split(",") if tok.strip()))
    except ValueError:
        raise ValueError(f"cannot parse prime list {spec!r}") from None
    if not primes:
        raise ValueError(f"prime list {spec!r} names no prime")
    for p in primes:
        check_oracle_prime(arr, p)
    return primes


def _add_oracle(result: dict, lat: IntersectionLattice, primes: list[int]) -> bool:
    """Attach the point counts at primes to result; False when one disagrees."""
    if not primes:
        return True
    reduced = reduced_char_poly(lat) if lat.arrangement.size >= 1 else None
    checks = []
    for p in primes:
        count = point_count_oracle(lat.arrangement, p)
        entry: dict = {"prime": p, "count": count}
        if reduced is not None:
            expected = poly_eval_int(reduced, p)
            entry["reduced_charpoly_value"] = expected
            entry["match"] = count == expected
        checks.append(entry)
    result["oracle"] = {"checks": checks, "all_match": all(c.get("match", True) for c in checks)}
    return result["oracle"]["all_match"]


# Handlers: (args, arrangement or None) -> (JSON result, exit code).  Each
# computes only the stages its command reads.


def _lattice(args, arr):
    primes = _parse_primes(args.primes, arr)
    lat = build_lattice(arr)
    result = _lattice_payload(lat)
    oracle_ok = _add_oracle(result, lat, primes)
    return result, 0 if oracle_ok else 1


def _charpoly(args, arr):
    return _charpoly_payload(build_lattice(arr)), 0


def _csm(args, arr):
    return _csm_payload(csm_complement(build_lattice(arr))), 0


def _max_degree(args) -> int:
    if not 0 <= args.max_degree <= MAX_DEGREE:
        raise ValueError(f"--max-degree must be in 0..{MAX_DEGREE}, got {args.max_degree}")
    return args.max_degree


def _derivations(args, arr):
    max_degree = _max_degree(args)
    freeness = _search(arr, integer_roots(char_poly(build_lattice(arr))))
    generators = [g.render() for g in freeness.search.generators]
    return _derivations_payload(arr, freeness, max_degree, generators), 0


def _freeness(args, arr):
    rep = _search(arr, integer_roots(char_poly(build_lattice(arr))))
    return _freeness_payload(rep, [g.render() for g in rep.search.generators]), 0


def _verify(args, arr):
    primes = _parse_primes(args.primes, arr)
    lat = build_lattice(arr)
    # lat is read for chi alone and never makes its flats; the routes get a
    # second lattice (perfbench/test_bench.py pins 2 builds per verify), the
    # only one materialized, and only in P^2, where the surface routes read
    # its points (of_codim(2))
    vr = verify_arrangement(build_lattice(arr), _guided_freeness(arr, lat))
    result = _verify_payload(vr)
    oracle_ok = _add_oracle(result, lat, primes)
    return result, 0 if (vr.passed and oracle_ok) else 1


def _report(args, arr):
    max_degree = _max_degree(args)
    primes = _parse_primes(args.primes, arr)
    lat = build_lattice(arr)
    freeness = _search(arr, integer_roots(char_poly(lat)))
    vr = verify_arrangement(lat, freeness)
    # both payloads print the walk's generators: render them once
    generators = [g.render() for g in freeness.search.generators]
    verification = _verify_payload(vr)
    result = {
        "lattice": _lattice_payload(lat),
        "charpoly": _charpoly_payload(lat),
        "csm": _csm_payload(verification["routes"]["lattice_csm"]),
        "derivations": _derivations_payload(arr, freeness, max_degree, generators),
        "freeness": _freeness_payload(freeness, generators),
        "verification": verification,
    }
    oracle_ok = _add_oracle(result, lat, primes)
    return result, 0 if (vr.passed and oracle_ok) else 1


def _example41(args, _arr):
    ok, csm_side, chern_side = verify_pencil_identity(args.m, args.n)
    k_ok, twisted = verify_pencil_koszul(args.m, args.n)
    result = {
        "m": args.m,
        "n": args.n,
        "identity": {
            "csm_side": csm_side.coeffs,
            "chern_side": chern_side.coeffs,
            "equal": ok,
        },
        "koszul": {"twisted_class": twisted.coeffs, "equal": k_ok},
    }
    return result, 0 if (ok and k_ok) else 1


def _projection(args, _arr):
    chk = projection_check(args.d, args.e, args.n)

    def side(pushed, capped, equal) -> dict:
        return {"pushed": [str(c) for c in pushed], "capped": [str(c) for c in capped], "equal": equal}

    result = {
        "d": args.d,
        "e": args.e,
        "n": args.n,
        "structure_sheaf": side(chk.structure_pushed, chk.structure_capped, chk.structure_equal),
        "transverse": side(chk.transverse_pushed, chk.transverse_capped, chk.transverse_equal),
        "as_expected": chk.as_expected,
    }
    return result, 0 if chk.as_expected else 1


# Text renderers: (JSON result, arrangement or None, elapsed ms) -> printed
# report.  They read nothing but the result, so text and --json agree.


def _lattice_text(result: dict, arr, elapsed_ms: float) -> None:
    print(f"{result['num_flats']} flats")
    for f in result["flats"]:
        lines = ",".join(str(i) for i in f.indices)
        print(f"  codim {f.codim}  mu {f.mu:3d}  hyperplanes [{lines}]")
    for c in result.get("oracle", {"checks": []})["checks"]:
        tail = ""
        if "match" in c:
            tail = f"  chi-bar({c['prime']}) = {c['reduced_charpoly_value']}  match: {c['match']}"
        print(f"  p = {c['prime']}: {c['count']} points{tail}")


def _charpoly_text(result: dict, arr, elapsed_ms: float) -> None:
    print(f"chi(t) = {result['rendered']}")
    if result["reduced_rendered"] is not None:
        print(f"chi(t)/(t-1) = {result['reduced_rendered']}")


def _csm_text(result: dict, arr, elapsed_ms: float) -> None:
    terms = " + ".join(f"{v}*{lbl}" for v, lbl in zip(result["vector"], result["basis_labels"]))
    print(f"csm = {terms}")
    print(f"euler characteristic of the complement: {result['euler_characteristic']}")


def _derivations_text(result: dict, arr, elapsed_ms: float) -> None:
    for d, dim in result["dims"]:
        print(f"  degree {d}: dim {dim}")
    print(f"minimal generator degrees: {result['generator_degrees']}")
    print(f"search exit: {result['exit_reason']}")


def _freeness_line(result: dict) -> None:
    if result["free"]:
        print(f"free, exponents {result['exponents']}")
    else:
        print(f"not free: {result['reason']}")


def _freeness_text(result: dict, arr, elapsed_ms: float) -> None:
    _freeness_line(result)
    if result["free"]:
        print(f"Saito scalar: {result['saito_scalar']}")
    for line in result["search_log"]:
        print(f"  {line}")


def _verify_text(result: dict, arr: Arrangement, elapsed_ms: float) -> None:
    print(f"arrangement: {arr.name or '(unnamed)'} (P^{arr.projective_dim})")
    for name, vec in result["routes"].items():
        shown = "skipped" if vec is None else "(" + ", ".join(str(v) for v in vec) + ")"
        print(f"  {name:20s} {shown}")
    for note in result["notes"]:
        print(f"  note: {note}")
    blowup = result["blowup_class"]
    if blowup is not None:
        parts = [f"{blowup['unit']}*[V-hat]", f"{blowup['h']}*h"]
        parts += [f"{c}*E{i}({point})" for i, (point, c) in enumerate(blowup["exceptional"])]
        parts.append(f"{blowup['pt']}*pt")
        print("  blow-up class: " + " + ".join(parts))
    print(f"result: {'VERIFIED' if result['passed'] else 'DISAGREEMENT'}")
    print(f"elapsed: {elapsed_ms:.1f} ms")
    for c in result.get("oracle", {"checks": []})["checks"]:
        tail = ""
        if "match" in c:
            tail = f"  chi-bar = {c['reduced_charpoly_value']}  match: {c['match']}"
        print(f"  oracle p = {c['prime']}: {c['count']} points{tail}")


def _report_text(result: dict, arr: Arrangement, elapsed_ms: float) -> None:
    print(f"chi(t) = {result['charpoly']['rendered']}")
    print(f"csm vector: {result['csm']['vector']}")
    _freeness_line(result["freeness"])
    # _add_oracle puts report's oracle beside the verification payload, not in it
    verification = {**result["verification"], "oracle": result.get("oracle", {"checks": []})}
    _verify_text(verification, arr, elapsed_ms)


def _example41_text(result: dict, arr, elapsed_ms: float) -> None:
    def render(vec) -> str:
        return FormalClass.make(vec, len(vec) - 1).render()

    identity, koszul = result["identity"], result["koszul"]
    print(f"m = {result['m']}, truncation order {result['n']}")
    print(f"  csm side:     {render(identity['csm_side'])}")
    print(f"  chern side:   {render(identity['chern_side'])}")
    print(f"  identity:     {'equal' if identity['equal'] else 'NOT EQUAL'}")
    print(f"  twisted class: {render(koszul['twisted_class'])}")
    print(f"  koszul route: {'equal' if koszul['equal'] else 'NOT EQUAL'}")


def _projection_text(result: dict, arr, elapsed_ms: float) -> None:
    print(f"hypersurface degrees d = {result['d']}, e = {result['e']} in P^{result['n']}")
    for key, label, expected in (("structure_sheaf", "structure sheaf:", False),
                                 ("transverse", "transverse:     ", True)):
        side = result[key]
        print(f"  {label} pushed [{', '.join(side['pushed'])}]")
        print(f"                   capped [{', '.join(side['capped'])}]")
        print(f"                   equal: {side['equal']} (expected {expected})")


def _corpus_text(result: dict, arr, elapsed_ms: float) -> None:
    for entry in result["entries"]:
        msg = entry.get("message", "")
        print(f"  {entry['file']:24s} {entry['status']}{': ' + msg if msg else ''}")
    print(
        f"total: {result['num_pass']} pass, {result['num_fail']} fail, "
        f"{result['num_error']} error"
    )
    print(f"elapsed: {elapsed_ms:.1f} ms")


# JSON scalar type -> its text, as json.dumps writes it with ensure_ascii
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json(obj, write, pad: str = "", memo: dict | None = None) -> None:
    """Write obj through write piece by piece, never holding the output, as json.dumps(obj, sort_keys=True, indent=2).

    obj's first line is at pad.  A dict's items, sorted, and a list's or
    tuple's elements go through one loop, each on a line one indent deeper:
    its head (a dict item's key), then its value, a scalar inline, so a leaf
    costs no call of _json.  A Flat is written by one template as the dict
    {"basis", "codim", "hyperplanes", "mu"}, its basis the RREF rows of its
    span.  memo maps a pad to the text of the span rows written at it, so
    each distinct row is rendered once per output.  Anything else, and a
    dict key that is not a str, raise TypeError.
    """
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        write(scalar(obj))
        return
    if memo is None:
        memo = {}
    inner = pad + "  "
    if type(obj) is Flat:
        rows = memo.setdefault(pad, {})
        deep = inner + "  "
        basis = []
        for row in obj.span:
            text = rows.get(row)
            if text is None:  # the entries are ASCII digits, "-" and "/": quoted, not escaped
                text = rows[row] = f'[\n{deep}  "' + f'",\n{deep}  "'.join(_over_lead(row)) + f'"\n{deep}]'
            basis.append(text)
        sep = f",\n{deep}"
        basis = f"[\n{deep}{sep.join(basis)}\n{inner}]" if basis else "[]"
        hyperplanes = f"[\n{deep}{sep.join(map(str, obj.indices))}\n{inner}]" if obj.indices else "[]"
        write(f'{{\n{inner}"basis": {basis},\n{inner}"codim": {obj.codim},\n{inner}"hyperplanes": '
              f'{hyperplanes},\n{inner}"mu": {obj.mu}\n{pad}}}')
        return
    if type(obj) is dict:
        items = ((f"{encode_basestring_ascii(key)}: ", value) for key, value in sorted(obj.items()))
        opening, closing = "{", "}"
    elif type(obj) in (list, tuple):
        items = (("", value) for value in obj)
        opening, closing = "[", "]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    sep = f"{opening}\n{inner}"
    for head, value in items:
        scalar = _SCALARS.get(type(value))
        if scalar is not None:
            write(sep + head + scalar(value))
        else:
            write(sep + head)
            _json(value, write, inner, memo)
        sep = f",\n{inner}"
    write(f"\n{pad}{closing}" if obj else opening + closing)


# argparse arguments as (flag, keywords); run() parses the .arr file that _INPUT names
_INPUT = ("--input", {"required": True, "help": ".arr file"})
_JSON = ("--json", {"action": "store_true", "help": "emit JSON instead of text"})
_PRIMES = ("--primes", {"help": "comma-separated primes for the counting oracle"})
_MAX_DEGREE = ("--max-degree", {"type": int, "default": 3, "help": "largest degree to tabulate"})

# subcommand -> (handler, text renderer, help, arguments), in the order --help lists them
COMMANDS = {
    "lattice": (_lattice, _lattice_text, "intersection lattice with Mobius values", (_INPUT, _JSON, _PRIMES)),
    "charpoly": (_charpoly, _charpoly_text, "characteristic polynomial", (_INPUT, _JSON)),
    "csm": (_csm, _csm_text, "CSM class of the projective complement", (_INPUT, _JSON)),
    "derivations": (_derivations, _derivations_text, "logarithmic derivation module",
                    (_INPUT, _JSON, _MAX_DEGREE)),
    "freeness": (_freeness, _freeness_text, "freeness decision via Saito's criterion", (_INPUT, _JSON)),
    "verify": (_verify, _verify_text, "compute all routes and compare", (_INPUT, _JSON, _PRIMES)),
    "example41": (_example41, _example41_text, "pencil-family identity in a formal divisor class", (
        ("--m", {"type": int, "required": True, "help": "number of pencil members, >= 2"}),
        ("--n", {"type": int, "default": 2, "help": "truncation order (ambient dimension)"}), _JSON)),
    "projection": (_projection, _projection_text, "projection-formula comparison on P^n", (
        ("--d", {"type": int, "default": 1, "help": "degree of the hypersurface X"}),
        ("--e", {"type": int, "default": 1, "help": "degree of the transverse hypersurface Y"}),
        ("--n", {"type": int, "default": 2, "help": "ambient projective dimension"}), _JSON)),
    "report": (_report, _report_text, "full report: lattice, classes, freeness, verification",
               (_INPUT, _JSON, _PRIMES, _MAX_DEGREE)),
    "corpus": (lambda args, _arr: corpus_runner(Path(args.input)), _corpus_text,
               "verify every .arr file in a directory",
               (("--input", {"required": True, "help": "directory of .arr files"}), _JSON)),
}


@cache
def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The top-level parser, or the one it hands command's arguments to, named "arrcsm <command>" as there.

    Building an ArgumentParser costs more than parsing with it, and the
    top-level parser builds one per subcommand.
    """
    if command is None:
        parser = argparse.ArgumentParser(
            prog="arrcsm",
            description="Exact CSM / log-derivation class computations for hyperplane arrangements",
        )
        sub = parser.add_subparsers(dest="command", required=True)
        parsers = {name: sub.add_parser(name, help=entry[2]) for name, entry in COMMANDS.items()}
    else:
        parser = argparse.ArgumentParser(prog=f"arrcsm {command}")
        parsers = {command: parser}
    for name, each in parsers.items():
        for flag, keywords in COMMANDS[name][3]:
            each.add_argument(flag, **keywords)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv as the top-level parser parses it, through a named subcommand's parser alone.

    What that parser leaves over, the top-level parser refuses with its own usage.
    """
    if argv and argv[0] in COMMANDS:
        args, rest = _build_parser(argv[0]).parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return _build_parser().parse_args(argv)


def run(argv: list[str]) -> int:
    args = _parse_args(argv)
    started = time.perf_counter()
    handler, show, _, arguments = COMMANDS[args.command]
    try:
        arr = parse_file(args.input) if _INPUT in arguments else None
        result, code = handler(args, arr)
    except (OSError, ValueError) as exc:  # ParseError and BadReductionError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3
    try:
        if args.json:
            payload = {
                "command": args.command,
                "result": result,
                "tool": {"name": "arrcsm", "version": __version__},
            }
            if arr is not None:
                payload["arrangement"] = _arrangement_payload(arr)
            _json(payload, sys.stdout.write)
            sys.stdout.write("\n")
        else:
            for w in arr.warnings if arr is not None else ():
                print(f"warning: {w}")
            show(result, arr, (time.perf_counter() - started) * 1000)
        sys.stdout.flush()
    except BrokenPipeError:  # stdout closed early: fd 1 to devnull, so the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
