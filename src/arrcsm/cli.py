"""Command-line front end.

Subcommands operate on .arr files (or pure parameters) and print either
a human-readable text report or, with --json, a schema-stable JSON
document.  JSON output is key-sorted and contains nothing run-dependent,
so two runs on the same input are byte-identical; wall-clock timing only
ever appears in text output.

Exit codes: 0 success / verified, 1 a verification failed, 2 input error,
3 internal error (a consistency check inside arrcsm failed).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .arrangement import Arrangement, ParseError, parse_file
from .chow import (
    BlowupRoute,
    ROUTE_NAMES,
    VerificationReport,
    projection_check,
    verify_arrangement,
    verify_pencil_identity,
    verify_pencil_koszul,
)
from .lattice import (
    BadReductionError,
    IntersectionLattice,
    build_lattice,
    char_poly,
    csm_complement,
    point_count_oracle,
    poly_eval_int,
    reduced_char_poly,
    render_poly_in_t,
)
from .logder import decide_freeness, log_derivation_space, minimal_generators


def _fraction_str(x: Fraction) -> str:
    return str(x)


def _arrangement_payload(arr: Arrangement) -> dict:
    return {
        "name": arr.name,
        "variables": arr.nvars,
        "projective_dim": arr.projective_dim,
        "num_forms": arr.size,
        "rank": arr.rank(),
        "essential": arr.is_essential(),
        "forms": [[_fraction_str(c) for c in f.coeffs] for f in arr.forms],
        "warnings": list(arr.warnings),
    }


def _lattice_payload(lat: IntersectionLattice) -> dict:
    return {
        "num_flats": lat.size(),
        "flats": [
            {
                "codim": f.codim,
                "mu": f.mu,
                "hyperplanes": list(f.indices),
                "basis": [[_fraction_str(c) for c in row] for row in f.rows],
            }
            for f in lat.flats
        ],
    }


def _charpoly_payload(arr: Arrangement, lat: IntersectionLattice) -> dict:
    chi = char_poly(arr, lat)
    payload = {
        "ascending_coeffs": list(chi),
        "rendered": render_poly_in_t(chi),
        "reduced_ascending_coeffs": None,
        "reduced_rendered": None,
    }
    if arr.size >= 1:
        reduced = reduced_char_poly(arr, lat)
        payload["reduced_ascending_coeffs"] = list(reduced)
        payload["reduced_rendered"] = render_poly_in_t(reduced)
    return payload


def _csm_payload(arr: Arrangement, lat: IntersectionLattice) -> dict:
    n = arr.projective_dim
    vec = csm_complement(arr, lat)
    return {
        "vector": list(vec),
        "basis_labels": [f"[P^{n - j}]" for j in range(n + 1)],
        "euler_characteristic": vec[-1],
    }


def _oracle_payload(arr: Arrangement, lat: IntersectionLattice, primes: list[int]) -> dict:
    reduced = reduced_char_poly(arr, lat) if arr.size >= 1 else None
    checks = []
    for p in primes:
        count = point_count_oracle(arr, p)
        entry: dict = {"prime": p, "count": count}
        if reduced is not None:
            expected = poly_eval_int(reduced, p)
            entry["reduced_charpoly_value"] = expected
            entry["match"] = count == expected
        checks.append(entry)
    return {"checks": checks, "all_match": all(c.get("match", True) for c in checks)}


def _derivations_payload(arr: Arrangement, max_degree: int) -> dict:
    dims = [[d, len(log_derivation_space(arr, d))] for d in range(max_degree + 1)]
    gb = minimal_generators(arr)
    return {
        "dims": dims,
        "generator_degrees": list(gb.generator_degrees),
        "generators": [g.render() for g in gb.generators],
        "exit_reason": gb.exit_reason,
        "search_log": list(gb.search_log),
    }


def _freeness_payload(arr: Arrangement) -> dict:
    rep = decide_freeness(arr)
    return {
        "free": rep.free,
        "exponents": list(rep.exponents) if rep.exponents is not None else None,
        "saito_scalar": _fraction_str(rep.saito_scalar) if rep.saito_scalar is not None else None,
        "reason": rep.reason,
        "generators": [g.render() for g in rep.generators],
        "search_log": list(rep.search_log),
    }


def _blowup_payload(blowup: BlowupRoute | None) -> dict | None:
    if blowup is None:
        return None
    cls = blowup.cls
    return {
        "unit": int(cls.unit),
        "h": int(cls.h),
        "exceptional": [
            [center.render(), int(coef)]
            for center, coef in zip(blowup.centers, cls.exc)
        ],
        "pt": int(cls.pt),
        "centers": [
            {
                "point": center.render(),
                "multiplicity": center.multiplicity,
                "lines": list(center.lines),
            }
            for center in blowup.centers
        ],
    }


def _verify_payload(vr: VerificationReport) -> dict:
    return {
        "routes": {
            name: (list(vec) if vec is not None else None)
            for name, vec in vr.routes.items()
        },
        "agreements": [[a, b, ok] for a, b, ok in vr.agreements],
        "passed": vr.passed,
        "notes": list(vr.notes),
        "free": vr.freeness.free,
        "exponents": list(vr.freeness.exponents) if vr.freeness.exponents is not None else None,
        "blowup_class": _blowup_payload(vr.blowup),
    }


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _wrap(command: str, result: dict, arr: Arrangement | None = None) -> dict:
    payload = {
        "command": command,
        "result": result,
        "tool": {"name": "arrcsm", "version": __version__},
    }
    if arr is not None:
        payload["arrangement"] = _arrangement_payload(arr)
    return payload


def _print_warnings(arr: Arrangement) -> None:
    for w in arr.warnings:
        print(f"warning: {w}")


def _vec_str(vec) -> str:
    return "(" + ", ".join(str(v) for v in vec) + ")"


def _text_verify(vr: VerificationReport, elapsed_ms: float) -> None:
    label = vr.label or "(unnamed)"
    print(f"arrangement: {label} (P^{vr.projective_dim})")
    for name in ROUTE_NAMES:
        vec = vr.routes[name]
        print(f"  {name:20s} {'skipped' if vec is None else _vec_str(vec)}")
    for note in vr.notes:
        print(f"  note: {note}")
    if vr.blowup is not None:
        cls = vr.blowup.cls
        parts = [f"{cls.unit}*[V-hat]", f"{cls.h}*h"]
        parts += [
            f"{coef}*E{i}({center.render()})"
            for i, (center, coef) in enumerate(zip(vr.blowup.centers, cls.exc))
        ]
        parts.append(f"{cls.pt}*pt")
        print("  blow-up class: " + " + ".join(parts))
    print(f"result: {'VERIFIED' if vr.passed else 'DISAGREEMENT'}")
    print(f"elapsed: {elapsed_ms:.1f} ms")


def _is_internal(exc: RuntimeError) -> bool:
    return str(exc).startswith("internal consistency failure")


def corpus_runner(directory: Path) -> tuple[dict, int]:
    """Verify every .arr file in a directory; summary payload and exit code.

    num_error counts both input errors (status "error") and internal
    errors (status "internal_error"); any internal error makes the code 3.
    """
    files = sorted(directory.glob("*.arr"))
    entries = []
    num_pass = num_fail = num_error = 0
    internal = False
    for path in files:
        try:
            arr = parse_file(path)
            vr = verify_arrangement(arr)
        except (ParseError, OSError, ValueError) as exc:
            entries.append({"file": path.name, "status": "error", "message": str(exc)})
            num_error += 1
            continue
        except RuntimeError as exc:
            if not _is_internal(exc):
                raise
            entries.append({"file": path.name, "status": "internal_error", "message": str(exc)})
            num_error += 1
            internal = True
            continue
        status = "pass" if vr.passed else "fail"
        if vr.passed:
            num_pass += 1
        else:
            num_fail += 1
        entries.append(
            {
                "file": path.name,
                "status": status,
                "routes": {
                    name: (list(vec) if vec is not None else None)
                    for name, vec in vr.routes.items()
                },
            }
        )
    payload = {
        "directory": directory.name,
        "entries": entries,
        "num_pass": num_pass,
        "num_fail": num_fail,
        "num_error": num_error,
    }
    code = 3 if internal else 2 if num_error else 1 if num_fail else 0
    return payload, code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrcsm",
        description="Exact CSM / log-derivation class computations for hyperplane arrangements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help=".arr file")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p_lattice = sub.add_parser("lattice", help="intersection lattice with Mobius values")
    with_input(p_lattice)
    p_lattice.add_argument("--primes", help="comma-separated primes for the counting oracle")

    p_charpoly = sub.add_parser("charpoly", help="characteristic polynomial")
    with_input(p_charpoly)

    p_csm = sub.add_parser("csm", help="CSM class of the projective complement")
    with_input(p_csm)

    p_der = sub.add_parser("derivations", help="logarithmic derivation module")
    with_input(p_der)
    p_der.add_argument("--max-degree", type=int, default=3, help="largest degree to tabulate")

    p_free = sub.add_parser("freeness", help="freeness decision via Saito's criterion")
    with_input(p_free)

    p_verify = sub.add_parser("verify", help="compute all routes and compare")
    with_input(p_verify)
    p_verify.add_argument("--primes", help="comma-separated primes for the counting oracle")

    p_ex = sub.add_parser("example41", help="pencil-family identity in a formal divisor class")
    p_ex.add_argument("--m", type=int, required=True, help="number of pencil members, >= 2")
    p_ex.add_argument("--n", type=int, default=2, help="truncation order (ambient dimension)")
    p_ex.add_argument("--json", action="store_true")

    p_proj = sub.add_parser("projection", help="projection-formula comparison on P^n")
    p_proj.add_argument("--d", type=int, default=1, help="degree of the hypersurface X")
    p_proj.add_argument("--e", type=int, default=1, help="degree of the transverse hypersurface Y")
    p_proj.add_argument("--n", type=int, default=2, help="ambient projective dimension")
    p_proj.add_argument("--json", action="store_true")

    p_report = sub.add_parser("report", help="full report: lattice, classes, freeness, verification")
    with_input(p_report)
    p_report.add_argument("--primes", help="comma-separated primes for the counting oracle")
    p_report.add_argument("--max-degree", type=int, default=3)

    p_corpus = sub.add_parser("corpus", help="verify every .arr file in a directory")
    p_corpus.add_argument("--input", required=True, help="directory of .arr files")
    p_corpus.add_argument("--json", action="store_true")

    return parser


def _parse_primes(spec: str | None) -> list[int]:
    if not spec:
        return []
    try:
        return [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"cannot parse prime list {spec!r}") from None


def run(argv: list[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()

    try:
        if args.command == "example41":
            ok, csm_side, chern_side = verify_pencil_identity(args.m, args.n)
            k_ok, twisted = verify_pencil_koszul(args.m, args.n)
            result = {
                "m": args.m,
                "n": args.n,
                "identity": {
                    "csm_side": list(csm_side.to_int_vector()),
                    "chern_side": list(chern_side.to_int_vector()),
                    "equal": ok,
                },
                "koszul": {
                    "twisted_class": list(twisted.to_int_vector()),
                    "equal": k_ok,
                },
            }
            if args.json:
                _emit_json(_wrap("example41", result))
            else:
                print(f"m = {args.m}, truncation order {args.n}")
                print(f"  csm side:     {csm_side.render()}")
                print(f"  chern side:   {chern_side.render()}")
                print(f"  identity:     {'equal' if ok else 'NOT EQUAL'}")
                print(f"  twisted class: {twisted.render()}")
                print(f"  koszul route: {'equal' if k_ok else 'NOT EQUAL'}")
            return 0 if (ok and k_ok) else 1

        if args.command == "projection":
            chk = projection_check(args.d, args.e, args.n)
            result = {
                "d": args.d,
                "e": args.e,
                "n": args.n,
                "structure_sheaf": {
                    "pushed": [str(c) for c in chk.structure_pushed],
                    "capped": [str(c) for c in chk.structure_capped],
                    "equal": chk.structure_equal,
                },
                "transverse": {
                    "pushed": [str(c) for c in chk.transverse_pushed],
                    "capped": [str(c) for c in chk.transverse_capped],
                    "equal": chk.transverse_equal,
                },
                "as_expected": chk.as_expected,
            }
            if args.json:
                _emit_json(_wrap("projection", result))
            else:
                print(f"hypersurface degrees d = {args.d}, e = {args.e} in P^{args.n}")
                print(f"  structure sheaf: pushed {list(chk.structure_pushed)}")
                print(f"                   capped {list(chk.structure_capped)}")
                print(f"                   equal: {chk.structure_equal} (expected False)")
                print(f"  transverse:      pushed {list(chk.transverse_pushed)}")
                print(f"                   capped {list(chk.transverse_capped)}")
                print(f"                   equal: {chk.transverse_equal} (expected True)")
            return 0 if chk.as_expected else 1

        if args.command == "corpus":
            directory = Path(args.input)
            if not directory.is_dir():
                print(f"error: {directory} is not a directory", file=sys.stderr)
                return 2
            payload, code = corpus_runner(directory)
            if args.json:
                _emit_json(_wrap("corpus", payload))
            else:
                for entry in payload["entries"]:
                    msg = entry.get("message", "")
                    print(f"  {entry['file']:24s} {entry['status']}{': ' + msg if msg else ''}")
                print(
                    f"total: {payload['num_pass']} pass, {payload['num_fail']} fail, "
                    f"{payload['num_error']} error"
                )
                print(f"elapsed: {(time.perf_counter() - started) * 1000:.1f} ms")
            return code

        # everything below reads one arrangement
        arr = parse_file(args.input)
        lat = build_lattice(arr)

        if args.command == "lattice":
            result = _lattice_payload(lat)
            primes = _parse_primes(getattr(args, "primes", None))
            if primes:
                result["oracle"] = _oracle_payload(arr, lat, primes)
            if args.json:
                _emit_json(_wrap("lattice", result, arr))
            else:
                _print_warnings(arr)
                print(f"{result['num_flats']} flats")
                for f in lat.flats:
                    lines = ",".join(str(i) for i in f.indices)
                    print(f"  codim {f.codim}  mu {f.mu:3d}  hyperplanes [{lines}]")
                if primes:
                    for c in result["oracle"]["checks"]:
                        tail = ""
                        if "match" in c:
                            tail = f"  chi-bar({c['prime']}) = {c['reduced_charpoly_value']}  match: {c['match']}"
                        print(f"  p = {c['prime']}: {c['count']} points{tail}")
            if "oracle" in result and not result["oracle"]["all_match"]:
                return 1
            return 0

        if args.command == "charpoly":
            result = _charpoly_payload(arr, lat)
            if args.json:
                _emit_json(_wrap("charpoly", result, arr))
            else:
                _print_warnings(arr)
                print(f"chi(t) = {result['rendered']}")
                if result["reduced_rendered"] is not None:
                    print(f"chi(t)/(t-1) = {result['reduced_rendered']}")
            return 0

        if args.command == "csm":
            result = _csm_payload(arr, lat)
            if args.json:
                _emit_json(_wrap("csm", result, arr))
            else:
                _print_warnings(arr)
                terms = " + ".join(
                    f"{v}*{lbl}" for v, lbl in zip(result["vector"], result["basis_labels"])
                )
                print(f"csm = {terms}")
                print(f"euler characteristic of the complement: {result['euler_characteristic']}")
            return 0

        if args.command == "derivations":
            result = _derivations_payload(arr, args.max_degree)
            if args.json:
                _emit_json(_wrap("derivations", result, arr))
            else:
                _print_warnings(arr)
                for d, dim in result["dims"]:
                    print(f"  degree {d}: dim {dim}")
                print(f"minimal generator degrees: {tuple(result['generator_degrees'])}")
                print(f"search exit: {result['exit_reason']}")
            return 0

        if args.command == "freeness":
            result = _freeness_payload(arr)
            if args.json:
                _emit_json(_wrap("freeness", result, arr))
            else:
                _print_warnings(arr)
                if result["free"]:
                    print(f"free, exponents {tuple(result['exponents'])}")
                    print(f"Saito scalar: {result['saito_scalar']}")
                else:
                    print(f"not free: {result['reason']}")
                for line in result["search_log"]:
                    print(f"  {line}")
            return 0

        if args.command == "verify":
            vr = verify_arrangement(arr)
            result = _verify_payload(vr)
            primes = _parse_primes(getattr(args, "primes", None))
            if primes:
                result["oracle"] = _oracle_payload(arr, lat, primes)
            if args.json:
                _emit_json(_wrap("verify", result, arr))
            else:
                _print_warnings(arr)
                _text_verify(vr, (time.perf_counter() - started) * 1000)
                if primes:
                    for c in result["oracle"]["checks"]:
                        tail = ""
                        if "match" in c:
                            tail = f"  chi-bar = {c['reduced_charpoly_value']}  match: {c['match']}"
                        print(f"  oracle p = {c['prime']}: {c['count']} points{tail}")
            oracle_ok = result.get("oracle", {"all_match": True})["all_match"]
            return 0 if (vr.passed and oracle_ok) else 1

        if args.command == "report":
            vr = verify_arrangement(arr)
            result = {
                "lattice": _lattice_payload(lat),
                "charpoly": _charpoly_payload(arr, lat),
                "csm": _csm_payload(arr, lat),
                "derivations": _derivations_payload(arr, args.max_degree),
                "freeness": _freeness_payload(arr),
                "verification": _verify_payload(vr),
            }
            primes = _parse_primes(getattr(args, "primes", None))
            if primes:
                result["oracle"] = _oracle_payload(arr, lat, primes)
            if args.json:
                _emit_json(_wrap("report", result, arr))
            else:
                _print_warnings(arr)
                print(f"chi(t) = {result['charpoly']['rendered']}")
                print(f"csm vector: {tuple(result['csm']['vector'])}")
                if result["freeness"]["free"]:
                    print(f"free, exponents {tuple(result['freeness']['exponents'])}")
                else:
                    print(f"not free: {result['freeness']['reason']}")
                _text_verify(vr, (time.perf_counter() - started) * 1000)
            oracle_ok = result.get("oracle", {"all_match": True})["all_match"]
            return 0 if (vr.passed and oracle_ok) else 1

        raise AssertionError(f"unhandled command {args.command!r}")

    except (ParseError, OSError, BadReductionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        if not _is_internal(exc):
            raise
        print(f"error: internal: {exc}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
