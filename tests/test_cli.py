import ast
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrcsm import chow, cli
from arrcsm.arrangement import MAX_VARS, parse, parse_file
from arrcsm.chow import Route, SingularPoint
from arrcsm.cli import corpus_runner, main, run
from arrcsm.lattice import build_lattice, char_poly, integer_roots
from arrcsm.logder import Derivation, InternalError, decide_freeness, degree_dimension, minimal_generators
from property_checks import arrangement_text

REPO = Path(__file__).resolve().parents[1]
CORPUS = REPO / "corpus"
THREE_CONC = CORPUS / "three_concurrent.arr"
FOUR_GENERIC = CORPUS / "four_generic.arr"
BOOLEAN = CORPUS / "boolean_triangle.arr"
INPUTS = REPO / "tests" / "inputs"

# Non-free, although chi = (t - 1)(t - 3)^2 splits: the walk over its roots
# overflows at degree 3, and the full walk finds 4 generators by degree 5.
SPLIT_NOT_FREE = "vars 3\n2 1 1\n1 1 1\n1 -1 1\n1 -2 -2\n1 2 2\n0 0 1\n2 -1 -1\n"

# B_5: x_i - x_j and x_i + x_j, i < j, then the coordinate planes x_i; free
# with exponents 1, 3, 5, 7, 9
B5 = arrangement_text(5, [
    *([int(c == i) + s * int(c == j) for c in range(5)] for i, j in combinations(range(5), 2) for s in (-1, 1)),
    *([int(c == i) for c in range(5)] for i in range(5)),
])


def test_verify_text(capsys):
    code = run(["verify", "--input", str(THREE_CONC)])
    out = capsys.readouterr().out
    assert code == 0
    assert "VERIFIED" in out
    assert "lattice_csm" in out
    assert "(1, 0, -1)" in out
    assert "blow-up class" in out
    assert "elapsed" in out


def test_verify_json_is_deterministic(capsys):
    code1 = run(["verify", "--input", str(THREE_CONC), "--json"])
    out1 = capsys.readouterr().out
    code2 = run(["verify", "--input", str(THREE_CONC), "--json"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert set(doc) == {"arrangement", "command", "result", "tool"}
    assert doc["command"] == "verify"
    assert doc["tool"]["name"] == "arrcsm"
    assert doc["result"]["passed"] is True
    assert doc["result"]["routes"]["lattice_csm"] == [1, 0, -1]
    assert doc["result"]["routes"]["blowup_pushforward"] == [1, 0, -1]
    assert doc["result"]["exponents"] == [0, 1, 2]


def test_csm_json(capsys):
    code = run(["csm", "--input", str(THREE_CONC), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["vector"] == [1, 0, -1]
    assert doc["result"]["euler_characteristic"] == -1
    assert doc["result"]["basis_labels"] == ["[P^2]", "[P^1]", "[P^0]"]
    assert doc["arrangement"]["num_forms"] == 3
    assert doc["arrangement"]["projective_dim"] == 2


def test_charpoly_text(capsys):
    code = run(["charpoly", "--input", str(THREE_CONC)])
    out = capsys.readouterr().out
    assert code == 0
    assert "chi(t) = t^3 - 3*t^2 + 2*t" in out
    assert "chi(t)/(t-1) = t^2 - 2*t" in out


def test_lattice_text_and_oracle(capsys):
    code = run(["lattice", "--input", str(THREE_CONC), "--primes", "5,7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "5 flats" in out
    assert "p = 5: 15 points" in out
    assert "match: True" in out


def test_derivations_text(capsys):
    code = run(["derivations", "--input", str(THREE_CONC), "--max-degree", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "degree 0: dim 1" in out
    assert "minimal generator degrees: (0, 1, 2)" in out
    assert "search exit: complete" in out


def test_freeness_text(capsys):
    code = run(["freeness", "--input", str(THREE_CONC)])
    out = capsys.readouterr().out
    assert code == 0
    assert "free, exponents (0, 1, 2)" in out

    code = run(["freeness", "--input", str(FOUR_GENERIC)])
    out = capsys.readouterr().out
    assert code == 0
    assert "not free" in out


def test_verify_with_oracle(capsys):
    code = run(["verify", "--input", str(BOOLEAN), "--primes", "101,103"])
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle p = 101" in out
    assert "match: True" in out


def test_report_json(capsys):
    code = run(
        ["report", "--input", str(THREE_CONC), "--json", "--primes", "5", "--max-degree", "2"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    result = doc["result"]
    assert set(result) == {
        "lattice",
        "charpoly",
        "csm",
        "derivations",
        "freeness",
        "verification",
        "oracle",
    }
    assert result["csm"]["vector"] == [1, 0, -1]
    assert result["freeness"]["exponents"] == [0, 1, 2]
    assert result["verification"]["passed"] is True
    assert result["oracle"]["all_match"] is True


def test_report_renders_each_generator_once(capsys, monkeypatch, tmp_path):
    # six generic lines are not free: the search stops at overflow with more
    # generators than the rank, and the derivations and freeness payloads
    # list the same ones
    path = tmp_path / "generic6.arr"
    path.write_text(arrangement_text(3, [[1, t, t * t] for t in range(1, 7)]))
    rendered = []
    monkeypatch.setattr(Derivation, "render", lambda g, fn=Derivation.render: rendered.append(g) or fn(g))
    assert run(["report", "--input", str(path), "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    gens = result["derivations"]["generators"]
    assert result["freeness"]["generators"] == gens and len(gens) > 3
    assert len(rendered) == len(gens)


def _oracle_lines(out: str) -> list[str]:
    return [line for line in out.splitlines() if line.lstrip().startswith("oracle p =")]


def test_report_text_prints_the_oracle_as_verify_does(capsys):
    # _add_oracle puts the counts beside the verification payload, not in it
    argv = ["--input", str(FOUR_GENERIC), "--primes", "101,103"]
    assert run(["verify", *argv]) == 0
    verify_lines = _oracle_lines(capsys.readouterr().out)
    assert run(["report", *argv]) == 0
    report_lines = _oracle_lines(capsys.readouterr().out)
    assert [line.split(":")[0].strip() for line in verify_lines] == ["oracle p = 101", "oracle p = 103"]
    assert report_lines == verify_lines


def test_report_text_shows_a_disagreeing_count(capsys, monkeypatch):
    monkeypatch.setattr(cli, "point_count_oracle", lambda arr, p, fn=cli.point_count_oracle: fn(arr, p) + 1)
    assert run(["report", "--input", str(FOUR_GENERIC), "--primes", "101"]) == 1
    lines = _oracle_lines(capsys.readouterr().out)
    assert len(lines) == 1 and lines[0].endswith("match: False")


def test_blowup_payload_renders_each_center_once(capsys, monkeypatch):
    rendered = []
    monkeypatch.setattr(SingularPoint, "render", lambda c, fn=SingularPoint.render: rendered.append(c) or fn(c))
    assert run(["verify", "--input", str(THREE_CONC), "--json"]) == 0
    blowup = json.loads(capsys.readouterr().out)["result"]["blowup_class"]
    assert [p for p, _ in blowup["exceptional"]] == [c["point"] for c in blowup["centers"]]
    assert len(rendered) == len(blowup["centers"]) > 0


def test_a_route_added_in_chow_alone_reaches_every_output(capsys, monkeypatch):
    def with_fifth(lat, freeness, routes=chow._routes):
        return (*routes(lat, freeness), Route("fifth", (1, 0, 0), None, None))

    monkeypatch.setattr(chow, "_routes", with_fifth)
    assert run(["verify", "--input", str(THREE_CONC), "--json"]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["routes"]["fifth"] == [1, 0, 0]
    assert [a for a in result["agreements"] if "fifth" in a] == [
        [name, "fifth", False] for name in ("lattice_csm", "exponent_product", "tjurina", "blowup_pushforward")
    ]
    assert result["passed"] is False
    assert run(["verify", "--input", str(THREE_CONC)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[4:6] == ["  blowup_pushforward   (1, 0, -1)", "  fifth                (1, 0, 0)"]
    assert "result: DISAGREEMENT" in lines


def test_example41(capsys):
    code = run(["example41", "--m", "3", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["identity"]["csm_side"] == [1, -3, 5]
    assert doc["result"]["identity"]["equal"] is True
    assert doc["result"]["koszul"]["twisted_class"] == [1, 0, -4]

    code = run(["example41", "--m", "5", "--n", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "identity:     equal" in out
    assert "koszul route: equal" in out


def test_example41_bad_m(capsys):
    code = run(["example41", "--m", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_projection(capsys):
    code = run(["projection", "--d", "2", "--e", "1", "--n", "2", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["as_expected"] is True
    assert doc["result"]["structure_sheaf"]["equal"] is False
    assert doc["result"]["transverse"]["equal"] is True

    code = run(["projection"])
    out = capsys.readouterr().out
    assert code == 0
    assert "expected True" in out


@pytest.mark.parametrize("argv", [["example41", "--m", "3"], ["projection"]])
def test_formal_order_is_bounded(capsys, argv):
    started = time.perf_counter()
    code = run([*argv, "--n", "101"])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert code == 2
    assert "n <= 100" in captured.err
    assert captured.out == ""
    assert elapsed < 1


@pytest.mark.parametrize("command", ["derivations", "report"])
@pytest.mark.parametrize("value", ["-1", "101"])
def test_max_degree_is_bounded(capsys, command, value):
    code = run([command, "--input", str(THREE_CONC), "--json", "--max-degree", value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: --max-degree must be in 0..100" in captured.err


@pytest.mark.parametrize("command", ["derivations", "report"])
def test_max_degree_at_the_bound(capsys, command):
    assert run([command, "--input", str(THREE_CONC), "--json", "--max-degree", "100"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    dims = (result["derivations"] if command == "report" else result)["dims"]
    assert [d for d, _ in dims] == list(range(101))


def test_projection_rejects_huge_degrees_before_any_arithmetic(capsys):
    # 10^100 with n = 100: entries of 10,000 digits, past Python's int-to-str limit
    big = str(10**100)
    started = time.perf_counter()
    code = run(["projection", "--d", big, "--e", big, "--n", "100", "--json"])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert code == 2
    assert "error: --d/--e too large" in captured.err
    assert "int_max_str_digits" not in captured.err
    assert captured.out == ""
    assert elapsed < 1


def test_projection_at_the_digit_bound(capsys):
    # (10^1000 - 1)^4 has 4000 digits, 10^4000 has 4001
    edge = 10**1000 - 1
    assert run(["projection", "--d", str(edge), "--e", "2", "--n", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)["result"]
    assert doc["structure_sheaf"]["capped"] == ["0", str(edge), str(edge**2), str(edge**3)]
    assert doc["as_expected"] is True
    assert run(["projection", "--d", "2", "--e", str(edge + 1), "--n", "3", "--json"]) == 2
    assert "error: --d/--e too large" in capsys.readouterr().err


def test_projection_text_prints_the_json_strings(capsys):
    assert run(["projection", "--d", "2", "--e", "3", "--n", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)["result"]
    assert run(["projection", "--d", "2", "--e", "3", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "pushed [0, 2, 0, 0]" in out
    for side in ("structure_sheaf", "transverse"):
        for key in ("pushed", "capped"):
            assert f"{key} [{', '.join(doc[side][key])}]" in out
    assert "Fraction" not in out


def test_corpus_all_pass(capsys):
    code = run(["corpus", "--input", str(CORPUS)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 fail, 0 error" in out
    payload, rc = corpus_runner(CORPUS)
    assert rc == 0
    assert payload["num_pass"] == len(list(CORPUS.glob("*.arr")))
    assert payload["num_fail"] == 0
    assert payload["num_error"] == 0
    statuses = {e["status"] for e in payload["entries"]}
    assert statuses == {"pass"}


def test_corpus_json(capsys):
    code = run(["corpus", "--input", str(CORPUS), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["command"] == "corpus"
    assert "arrangement" not in doc
    assert doc["result"]["num_error"] == 0


def test_corpus_with_corrupt_file(tmp_path, capsys):
    good = tmp_path / "ok.arr"
    good.write_text("vars 3\n1 0 0\n", encoding="utf-8")
    bad = tmp_path / "broken.arr"
    bad.write_text("vars 3\n1 0\n", encoding="utf-8")
    code = run(["corpus", "--input", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "error" in out
    assert "1 pass" in out


def test_corpus_empty_dir(tmp_path, capsys):
    code = run(["corpus", "--input", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "total: 0 pass, 0 fail, 0 error" in out


def test_corpus_not_a_directory(capsys):
    code = run(["corpus", "--input", str(THREE_CONC)])
    err = capsys.readouterr().err
    assert code == 2
    assert "not a directory" in err


def test_a_byte_order_mark_is_skipped(tmp_path, capsys):
    # Windows editors may start a UTF-8 file with U+FEFF, which would precede the header
    text = (CORPUS / "braid_essential.arr").read_bytes()
    outputs, arrangements = [], []
    for folder, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
        path = tmp_path / folder / "braid_essential.arr"
        path.parent.mkdir()
        path.write_bytes(data)
        arrangements.append(parse_file(path))
        assert run(["verify", "--input", str(path), "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert arrangements[0] == arrangements[1] and arrangements[0].warnings == arrangements[1].warnings
    assert outputs[0] == outputs[1]


def test_a_byte_order_mark_loads_no_codec(tmp_path):
    # the utf-8 codec is loaded at start-up; decoding as utf-8-sig imports one more module
    path = tmp_path / "bom.arr"
    path.write_bytes(b"\xef\xbb\xbf" + (CORPUS / "braid_essential.arr").read_bytes())
    code = (
        "import sys; from arrcsm.arrangement import parse_file; parse_file(sys.argv[1]); "
        "print('encodings.utf_8_sig' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_every_subcommand_prints_its_help(capsys, name):
    with pytest.raises(SystemExit) as exited:
        run([name, "--help"])
    assert exited.value.code == 0
    out = capsys.readouterr().out
    words = " ".join(out.split())
    for flag, keywords in cli.COMMANDS[name][3]:
        assert re.search(rf"^  {flag}\b", out, re.M), (name, flag)
        assert keywords["help"] in words, (name, flag)


def test_the_top_level_help_lists_every_subcommand_in_table_order(capsys):
    with pytest.raises(SystemExit) as exited:
        run(["--help"])
    assert exited.value.code == 0
    listed = re.findall(r"^    (\w+)\s", capsys.readouterr().out, re.M)
    assert listed == list(cli.COMMANDS)


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--input", "a.arr", "--max-degree", "5", "--json"],
        ["report", "--max-degree", "x", "--input", "a.arr"],  # a bad type: the subcommand's usage
        ["verify"],  # a missing --input
        ["verify", "--input", "a.arr", "--bogus"],  # left over: the top-level usage
        ["example41", "--m", "3", "extra"],
        ["corpus", "--help"],
        ["--help"],
        [],
    ],
    ids=["valid", "bad_type", "missing", "unrecognized_flag", "unrecognized_positional", "help",
         "top_level_help", "empty"],
)
def test_arguments_parse_as_the_top_level_parser_parses_them(capsys, argv):
    def outcome(parse):
        try:
            parsed = vars(parse(argv))
        except SystemExit as exc:
            parsed = exc.code
        return parsed, capsys.readouterr()

    assert outcome(cli._parse_args) == outcome(cli._build_parser().parse_args)


def test_a_named_subcommand_builds_its_own_parser_alone():
    cli._build_parser.cache_clear()
    assert run(["charpoly", "--input", str(THREE_CONC)]) == 0
    assert cli._build_parser.cache_info().currsize == 1


def test_missing_input_file(capsys):
    code = run(["csm", "--input", "/nonexistent/nope.arr"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.arr"
    bad.write_text("vars 3\n0 0 0\n", encoding="utf-8")
    code = run(["csm", "--input", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "zero form" in err


@pytest.mark.parametrize("command,count", [
    ("csm", 10**20), ("charpoly", 10**20), ("verify", 10**20),  # OverflowError before the bound
    ("freeness", 1000), ("verify", 1000),  # RecursionError in the monomial walk before the bound
])
def test_variable_count_past_the_bound_is_an_input_error(tmp_path, capsys, command, count):
    path = tmp_path / "wide.arr"
    path.write_text(f"vars {count}\n", encoding="utf-8")
    code = run([command, "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: line 1: variable count must be between 1 and {MAX_VARS}\n"
    assert captured.out == ""


def test_bad_primes(capsys):
    code = run(["verify", "--input", str(THREE_CONC), "--primes", "6"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    code = run(["verify", "--input", str(THREE_CONC), "--primes", "abc"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_duplicate_warning_shown(tmp_path, capsys):
    dup = tmp_path / "dup.arr"
    dup.write_text("vars 3\n0 1 0\n0 2 0\n", encoding="utf-8")
    code = run(["csm", "--input", str(dup)])
    out = capsys.readouterr().out
    assert code == 0
    assert "warning:" in out
    assert "collapsed" in out


def test_duplicate_warning_in_json(tmp_path, capsys):
    dup = tmp_path / "dup.arr"
    dup.write_text("vars 3\n0 1 0\n0 2 0\n", encoding="utf-8")
    assert run(["csm", "--input", str(dup), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["arrangement"]["warnings"] == [
        "line 3: proportional to the form on line 2; collapsed"
    ]
    assert doc["arrangement"]["num_forms"] == 1


def test_rational_forms_are_scaled_not_truncated(tmp_path, capsys):
    # x0 + (2/3) x1 meets x0 and x1 at (0 : 0 : 1), so with x2 this is a
    # near-pencil of 4 lines, free with exponents (1, 1, 2); truncating
    # 2/3 to 0 would make it a duplicate of x0.
    outputs = []
    for form in ("1/2 1/3 0", "3 2 0"):
        path = tmp_path / "pencil.arr"
        path.write_text(f"vars 3\n1 0 0\n0 1 0\n0 0 1\n{form}\n", encoding="utf-8")
        for command in ("derivations", "freeness"):
            assert run([command, "--input", str(path), "--json"]) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:]
    freeness = json.loads(outputs[1])["result"]
    assert freeness["free"] is True
    assert freeness["exponents"] == [1, 1, 2]


@pytest.fixture
def stage_calls(monkeypatch):
    """Count build_lattice and minimal_generators calls wherever they are looked up."""
    from arrcsm import chow, cli, lattice, logder

    # only cli starts these stages; chow evaluates routes on what it is given
    for name in ("build_lattice", "decide_freeness", "minimal_generators"):
        assert not hasattr(chow, name), name

    calls = {"build_lattice": 0, "minimal_generators": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, owner in (("build_lattice", lattice), ("minimal_generators", logder)):
        wrapper = counting(name, getattr(owner, name))
        for module in (cli, owner):
            monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize(
    "argv,builds,searches,text",
    [
        (["report", "--primes", "101", "--max-degree", "4"], 1, 1, None),
        # derivations and freeness read chi off a lattice that makes no flat
        (["derivations", "--max-degree", "4"], 1, 1, None),
        (["freeness"], 1, 1, None),
        # the second build is pinned by perfbench/test_bench.py
        (["verify", "--primes", "101"], 2, 1, None),
        (["corpus"], 1, 1, None),
        # chi splits but A is not free: the walk over its roots, then the full walk
        (["freeness"], 1, 2, SPLIT_NOT_FREE),
        # chi = (t - 1)(t^2 - 8t + 22) does not split: the full walk alone
        (["freeness"], 1, 1, (INPUTS / "ziegler_conic.arr").read_text(encoding="utf-8")),
    ],
    ids=["report", "derivations", "freeness", "verify", "corpus", "freeness_split_not_free",
         "freeness_ziegler_conic"],
)
def test_each_stage_runs_once(stage_calls, tmp_path, capsys, argv, builds, searches, text):
    target = THREE_CONC
    if text is not None:
        target = tmp_path / "input.arr"
        target.write_text(text, encoding="utf-8")
    if argv[0] == "corpus":  # a directory holding that one file
        target = tmp_path
        shutil.copy(THREE_CONC, tmp_path)
    # the search on three_concurrent stops at degree 2, below --max-degree
    assert run([argv[0], "--input", str(target), "--json", *argv[1:]]) == 0
    capsys.readouterr()
    assert stage_calls == {"build_lattice": builds, "minimal_generators": searches}


@pytest.mark.parametrize(
    "command,text,solved",
    [
        # B_3: chi = (t - 1)(t - 3)(t - 5), and the walk stops complete at degree 5
        ("freeness", None, [1, 3, 5]),
        ("derivations", None, [1, 3, 5]),
        ("report", None, [1, 3, 5]),
        # D_0 of B_3 in adapted coordinates: the roots of chi / (t - 1)
        ("verify", None, [3, 5]),
        # the roots, through the overflow at degree 3, then the full walk to its overflow
        ("freeness", SPLIT_NOT_FREE, [1, 3, 0, 1, 2, 3, 4, 5]),
        # B_5: chi = (t - 1)(t - 3)(t - 5)(t - 7)(t - 9); the D_0 walk steps
        # through degrees 0..9 and solves 4 of them
        ("freeness", B5, [1, 3, 5, 7, 9]),
        ("verify", B5, [3, 5, 7, 9]),
    ],
    ids=["freeness", "derivations", "report", "verify", "freeness_split_not_free", "freeness_b5", "verify_b5"],
)
def test_the_search_solves_only_the_roots_of_chi(monkeypatch, tmp_path, capsys, command, text, solved):
    from arrcsm import logder

    degrees = []

    def spy(arr, d, *args, solve=logder._degree_system):
        degrees.append(d)
        return solve(arr, d, *args)

    monkeypatch.setattr(logder, "_degree_system", spy)
    target = INPUTS / "b3.arr"
    if text is not None:
        target = tmp_path / "input.arr"
        target.write_text(text, encoding="utf-8")
    assert run([command, "--input", str(target), "--json"]) == 0
    capsys.readouterr()
    assert degrees == solved


@pytest.mark.parametrize("command", ["lattice", "verify", "report"])
@pytest.mark.parametrize(
    "primes,message",
    [
        ("101,x", "cannot parse prime list '101,x'"),
        ("1009", "oracle is restricted to primes up to 1000"),
        ("7,4", "4 is not prime"),
        ("1", "1 is not prime"),
        ("0", "0 is not prime"),
        ("-3", "-3 is not prime"),
        ("101", "oracle chart of 101^5 points exceeds the bound of 2000000"),
        ("2", "denominator of 1/2 vanishes mod 2"),
        (",", "prime list ',' names no prime"),
        (" , ", "prime list ' , ' names no prime"),
        ("", "prime list '' names no prime"),
    ],
    ids=["unparsable", "too_large", "not_prime", "one", "zero", "negative", "chart_too_large",
         "bad_reduction", "comma", "blank_commas", "empty"],
)
def test_a_bad_prime_is_refused_before_any_stage(
    stage_calls, tmp_path, capsys, command, primes, message
):
    path = tmp_path / "p5.arr"
    path.write_text("vars 6\n1 0 0 0 0 0\n0 1 0 0 0 0\n0 0 2 0 0 1\n", encoding="utf-8")
    assert run([command, "--input", str(path), "--primes", primes]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert stage_calls == {"build_lattice": 0, "minimal_generators": 0}


@pytest.mark.parametrize("command", ["lattice", "verify", "report"])
def test_a_repeated_prime_is_counted_once(monkeypatch, capsys, command):
    swept = []
    monkeypatch.setattr(
        cli, "point_count_oracle", lambda arr, p, fn=cli.point_count_oracle: swept.append(p) or fn(arr, p)
    )
    assert run([command, "--input", str(THREE_CONC), "--primes", "103,101,103,101", "--json"]) == 0
    checks = json.loads(capsys.readouterr().out)["result"]["oracle"]["checks"]
    assert swept == [c["prime"] for c in checks] == [103, 101]


def _with_lineality(report, lineality):
    if not report.free:
        return report
    return report._replace(exponents=(0,) * lineality + report.exponents)


def _assert_search_equals_full(arr):
    """_search on chi's roots returns the full walk of D(A) and its decision, field by field."""
    graded, report = cli._search(arr, integer_roots(char_poly(build_lattice(arr))))
    full = minimal_generators(arr)
    assert graded._asdict() == full._asdict(), arr.forms
    assert report._asdict() == decide_freeness(arr, full)._asdict(), arr.forms
    return report


def _assert_guided_equals_full(arr):
    """verify decides as the full D_0 walk on A', with the lineality zeros.

    Its verdict and exponents are also those of the full D(A) walks on A'
    and on A.
    """
    guided = cli._guided_freeness(arr, build_lattice(arr))
    adapted, lineality = arr.adapted()
    assert adapted.size == arr.size and lineality == arr.nvars - arr.rank()
    n1 = adapted.nvars
    if adapted.size:  # D(A') = S*theta_E (+) D_0(A'), D_0 = {theta_0 = 0} on A''s first form x_0
        assert adapted.forms[0].coeffs == (1,) + (0,) * (n1 - 1)
        full = decide_freeness(adapted, minimal_generators(adapted, d0=True))
    else:  # no x_0 to split off: the full D(A') walk
        full = decide_freeness(adapted, minimal_generators(adapted))
    full = _with_lineality(full, lineality)
    assert (guided.free, guided.exponents, guided.saito_scalar, guided.reason) == (
        full.free, full.exponents, full.saito_scalar, full.reason), arr.forms
    # the whole record: a free decision carries the full walk's log
    assert guided._asdict() == full._asdict(), arr.forms
    whole = decide_freeness(adapted, minimal_generators(adapted))
    whole = _with_lineality(whole, lineality)
    assert (guided.free, guided.exponents) == (whole.free, whole.exponents), arr.forms
    original = _assert_search_equals_full(arr)
    assert (guided.free, guided.exponents) == (original.free, original.exponents), arr.forms


@pytest.mark.parametrize(
    "path", sorted(CORPUS.glob("*.arr")) + sorted(INPUTS.glob("*.arr")), ids=lambda p: p.stem
)
def test_guided_freeness_equals_the_full_walk_on_the_corpus(path):
    _assert_guided_equals_full(parse_file(path))


def _near_pencil(m):
    """m - 2 lines x1 + s*x2 and x2 = 0 through (1 : 0 : 0), and x0 = 0."""
    rows = [(0, 1, s) for s in range(m - 2)] + [(0, 0, 1), (1, 0, 0)]
    return parse(arrangement_text(3, rows))


def _braid(k):
    """x_i - x_j for 0 <= i < j <= k, in k + 1 coordinates."""
    rows = [
        tuple(1 if c == i else -1 if c == j else 0 for c in range(k + 1))
        for i in range(k + 1) for j in range(i + 1, k + 1)
    ]
    return parse(arrangement_text(k + 1, rows))


@pytest.mark.parametrize(
    "arr,exponents",
    [(_near_pencil(m), (1, 1, m - 2)) for m in range(4, 13)]
    + [(_braid(3), (0, 1, 2, 3)), (_braid(4), (0, 1, 2, 3, 4))]
    # x0 = x1 and x1 = x2 in 5 coordinates: A' is two coordinate lines, and
    # the lineality space of dimension 3 adds three zeros
    + [(parse(arrangement_text(5, [(1, -1, 0, 0, 0), (0, 1, -1, 0, 0)])), (0, 0, 0, 1, 1))],
    ids=[f"near_pencil_{m}" for m in range(4, 13)] + ["braid_A3", "braid_A4", "lineality_3"],
)
def test_guided_freeness_equals_the_full_walk_on_free_families(arr, exponents):
    assert cli._guided_freeness(arr, build_lattice(arr)).exponents == exponents
    _assert_guided_equals_full(arr)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3).filter(any), min_size=3, max_size=8))
def test_guided_freeness_equals_the_full_walk_on_random_lines(rows):
    _assert_guided_equals_full(parse(arrangement_text(3, rows)))


@st.composite
def _arrangements_in_p2_and_p3(draw):
    """Up to 6 forms in P^2 or P^3, some of them non-essential: coordinates no form uses."""
    nvars = draw(st.sampled_from([3, 4]))
    unused = draw(st.sets(st.integers(0, nvars - 1), max_size=nvars - 1))
    entries = [st.just(0) if j in unused else st.integers(-2, 2) for j in range(nvars)]
    rows = draw(st.lists(st.tuples(*entries).filter(any), min_size=1, max_size=6))
    return parse(arrangement_text(nvars, rows))


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(_arrangements_in_p2_and_p3())
def test_the_adapted_decision_equals_the_full_walk(arr):
    _assert_guided_equals_full(arr)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.sampled_from([3, 4]).flatmap(
    lambda nvars: st.lists(st.tuples(*[st.integers(-1, 1)] * nvars).filter(any), min_size=3, max_size=7)
))
def test_the_search_on_chi_roots_equals_the_full_walk(rows):
    # entries in -1..1 meet often, as in the reflection arrangements, so
    # many of these are free with exponents that skip degrees
    _assert_search_equals_full(parse(arrangement_text(len(rows[0]), rows)))


@pytest.mark.parametrize(
    "text,free,exponents",
    [
        ("vars 3\n", True, [0, 0, 0]),
        ("vars 3\n1 0 0\n", True, [0, 0, 1]),
        ("vars 4\n0 1 1 0\n0 1 -1 0\n0 1 2 0\n", True, [0, 0, 1, 2]),
    ],
    ids=["empty", "one_hyperplane", "rank2_in_P3"],
)
def test_verify_on_edges_of_the_adapted_coordinates(tmp_path, capsys, text, free, exponents):
    path = tmp_path / "edge.arr"
    path.write_text(text, encoding="utf-8")
    assert run(["verify", "--input", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["result"]["free"], doc["result"]["exponents"]) == (free, exponents)
    assert doc["arrangement"]["variables"] - doc["arrangement"]["rank"] == exponents.count(0)


def test_split_chi_of_a_non_free_arrangement_falls_back(stage_calls, tmp_path, capsys):
    path = tmp_path / "split_not_free.arr"
    path.write_text(SPLIT_NOT_FREE, encoding="utf-8")
    assert run(["verify", "--input", str(path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)["result"]
    # the guided search, then the full walk; the second build is the routes'
    assert stage_calls == {"build_lattice": 2, "minimal_generators": 2}
    assert doc["free"] is False
    assert doc["exponents"] is None
    assert run(["freeness", "--input", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["free"] is False
    _assert_guided_equals_full(parse(SPLIT_NOT_FREE))


@pytest.mark.parametrize(
    "name,wrong_roots",
    [
        ("near_pencil_5", (1, 2, 2)),  # misses the exponent 3: the walk exhausts
        ("near_pencil_5", (1, 2, 3)),  # a superset of the exponents
        ("near_pencil_5", (0, 0, 5)),  # degree 5 alone: the walk overflows
        ("near_pencil_5", (2, 3)),  # misses the exponent 1: the walk overflows
        ("split_not_free", (1, 2, 4)),
        ("split_not_free", (2, 5)),
        ("split_not_free", (0, 1, 6)),
    ],
)
def test_a_wrong_root_hint_never_changes_verify(monkeypatch, tmp_path, capsys, name, wrong_roots):
    path = CORPUS / f"{name}.arr"
    if name == "split_not_free":
        path = tmp_path / f"{name}.arr"
        path.write_text(SPLIT_NOT_FREE, encoding="utf-8")
    assert run(["verify", "--input", str(path), "--json"]) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(cli, "integer_roots", lambda chi: wrong_roots)
    assert run(["verify", "--input", str(path), "--json"]) == 0
    assert capsys.readouterr().out == expected


def test_only_the_cli_starts_the_shared_stages():
    stages = {"build_lattice", "minimal_generators", "decide_freeness"}
    for name in ("lattice", "logder", "chow"):
        tree = ast.parse((REPO / "src" / "arrcsm" / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in stages, f"{name} calls {node.func.id}"
            if isinstance(node, ast.FunctionDef):
                defaults = node.args.defaults + [d for d in node.args.kw_defaults if d]
                assert not any(
                    isinstance(d, ast.Constant) and d.value is None for d in defaults
                ), f"{name}.{node.name} has an optional input"


def test_json_run_computes_the_rank_once(monkeypatch, capsys):
    from arrcsm.arrangement import Arrangement

    calls = []
    rank = Arrangement.rank

    def counting(self):
        calls.append(self.name)
        return rank(self)

    monkeypatch.setattr(Arrangement, "rank", counting)
    assert run(["verify", "--input", str(THREE_CONC), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)["arrangement"]
    assert (doc["rank"], doc["essential"]) == (2, False)
    assert len(calls) == 1


def test_importing_the_cli_does_not_load_numpy():
    code = "import sys, arrcsm.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # the records are NamedTuples; dataclasses imports inspect, which imports ast, dis and tokenize
    names = "{'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}"
    code = f"import sys, arrcsm.cli; print(sorted({names} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_report_with_the_oracle_runs_without_numpy():
    # None in sys.modules makes every import of numpy raise ImportError
    code = "import sys; sys.modules['numpy'] = None; from arrcsm.cli import main; sys.exit(main())"
    argv = ["report", "--input", str(CORPUS / "generic5_p3.arr"), "--json"]
    argv += ["--primes", "101,103", "--max-degree", "4"]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (REPO / "tests" / "golden" / "generic5_p3.report.json").read_bytes()


def test_oracle_point_bound_is_an_input_error(capsys):
    code = run(["lattice", "--input", str(CORPUS / "tetrahedron_p3.arr"), "--primes", "997"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: oracle chart of 997^3 points exceeds the bound" in captured.err
    assert captured.out == ""


def test_oracle_prime_bound_is_checked_before_trial_division(capsys):
    started = time.perf_counter()
    prime = "1000000000000000003"  # trial division would take about 10^9 steps
    code = run(["lattice", "--input", str(CORPUS / "two_lines.arr"), "--primes", prime])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert code == 2
    assert "error: oracle is restricted to primes up to 1000" in captured.err
    assert elapsed < 0.5


def test_main_entry(capsys):
    assert main(["csm", "--input", str(THREE_CONC)]) == 0
    capsys.readouterr()


def test_module_execution():
    proc = subprocess.run(
        [sys.executable, "-m", "arrcsm", "verify", "--input", str(THREE_CONC), "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"]["passed"] is True


def test_derivations_of_no_forms_in_20_variables_ends_quickly(tmp_path):
    # free with twenty exponents 0: dim D(A)_d is 20 times the C(d + 19, 19)
    # monomials of degree d, so no kernel of 30,800 columns is solved
    path = tmp_path / "empty.arr"
    path.write_text("vars 20\n")
    proc = subprocess.run(
        [sys.executable, "-m", "arrcsm", "derivations", "--input", str(path), "--json"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["dims"] == [[0, 20], [1, 400], [2, 4200], [3, 30800]]


def test_derivations_of_four_lines_in_20_variables_end_in_time(tmp_path):
    # not free, so each degree past the search's stop solves a kernel of up
    # to 30,800 columns, almost all of them free; D(A) = D(A') (x) S + S^17
    # (Orlik & Terao, Prop. 4.28) for A' the same lines in x0..x2
    lines = [[1, 1, 1], [1, 2, 4], [1, 3, 9], [1, -1, 1]]
    path = tmp_path / "lines.arr"
    path.write_text(arrangement_text(20, [line + [0] * 17 for line in lines]))
    proc = subprocess.run(
        [sys.executable, "-m", "arrcsm", "derivations", "--input", str(path), "--json"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result["exit_reason"] == "overflow"
    plane = parse(arrangement_text(3, lines))
    assert [degree_dimension(plane, k) for k in range(4)] == [0, 1, 6, 14]
    expected = [
        [d, 17 * comb(d + 19, 19) + sum(degree_dimension(plane, k) * comb(d - k + 16, 16) for k in range(d + 1))]
        for d in range(4)
    ]
    assert result["dims"] == expected == [[0, 17], [1, 341], [2, 3593], [3, 26449]]


def test_dimensions_of_a_free_arrangement_come_from_its_exponents():
    free = 0
    for path in sorted(CORPUS.glob("*.arr")):
        arr = parse_file(path)
        graded = minimal_generators(arr)
        freeness = decide_freeness(arr, graded)
        if freeness.free:
            free += 1
            # with no searched degree, every dimension is read off the exponents
            unsearched = graded._replace(dimensions={})
            dims = cli._derivations_payload(arr, unsearched, freeness, 5, [])["dims"]
            assert dims == [[d, degree_dimension(arr, d)] for d in range(6)], path.name
    assert free == 9  # all but four_generic and generic5_p3


def _raise_internal(*args, **kwargs):
    raise InternalError("internal consistency failure: injected by the test")


def test_internal_error_exits_3(monkeypatch, capsys):
    monkeypatch.setattr("arrcsm.chow.tjurina_route", _raise_internal)
    code = run(["verify", "--input", str(THREE_CONC)])
    captured = capsys.readouterr()
    assert code == 3
    assert "error: internal: internal consistency failure: injected" in captured.err
    assert "VERIFIED" not in captured.out


def test_other_runtime_errors_still_propagate(monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("unrelated")

    monkeypatch.setattr("arrcsm.chow.tjurina_route", crash)
    with pytest.raises(RuntimeError, match="unrelated"):
        run(["verify", "--input", str(THREE_CONC)])


def test_internal_errors_are_told_by_type_not_by_message(monkeypatch, tmp_path):
    def crash(*args, **kwargs):
        raise RuntimeError("internal consistency failure: but not an InternalError")

    monkeypatch.setattr("arrcsm.chow.tjurina_route", crash)
    shutil.copy(THREE_CONC, tmp_path)
    with pytest.raises(RuntimeError, match="not an InternalError"):
        run(["verify", "--input", str(THREE_CONC)])
    with pytest.raises(RuntimeError, match="not an InternalError"):
        corpus_runner(tmp_path)


def test_corpus_marks_internal_error_and_continues(monkeypatch, tmp_path, capsys):
    # tjurina_route runs only in P^2, so the P^3 file still passes
    monkeypatch.setattr("arrcsm.chow.tjurina_route", _raise_internal)
    (tmp_path / "a_plane.arr").write_text(THREE_CONC.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "b_space.arr").write_text(
        (CORPUS / "tetrahedron_p3.arr").read_text(encoding="utf-8"), encoding="utf-8"
    )
    (tmp_path / "c_broken.arr").write_text("vars 3\n1 0\n", encoding="utf-8")
    payload, code = corpus_runner(tmp_path)
    assert code == 3
    assert [e["status"] for e in payload["entries"]] == ["internal_error", "pass", "error"]
    assert payload["num_pass"] == 1 and payload["num_error"] == 2
    assert run(["corpus", "--input", str(tmp_path)]) == 3
    assert "a_plane.arr" in capsys.readouterr().out


def _wrong_tjurina(lat):
    return (7,) * (lat.arrangement.projective_dim + 1)


@pytest.mark.parametrize(
    "files,statuses,code",
    [
        ({"a_plane.arr": THREE_CONC}, ["fail"], 1),
        ({"a_plane.arr": THREE_CONC, "b_space.arr": CORPUS / "tetrahedron_p3.arr"}, ["fail", "pass"], 1),
        ({"a_plane.arr": THREE_CONC, "b_broken.arr": None}, ["fail", "error"], 2),
    ],
    ids=["fail", "fail_and_pass", "fail_and_error"],
)
def test_corpus_exits_with_the_largest_file_code(monkeypatch, tmp_path, capsys, files, statuses, code):
    # tjurina_route runs only in P^2: the plane file fails, the P^3 file still passes
    monkeypatch.setattr("arrcsm.chow.tjurina_route", _wrong_tjurina)
    for name, source in files.items():
        text = "vars 3\n1 0\n" if source is None else source.read_text(encoding="utf-8")
        (tmp_path / name).write_text(text, encoding="utf-8")
    payload, rc = corpus_runner(tmp_path)
    assert rc == code
    assert [e["status"] for e in payload["entries"]] == statuses
    kinds = ("pass", "fail", "error")
    assert [payload[f"num_{kind}"] for kind in kinds] == [statuses.count(kind) for kind in kinds]
    assert run(["corpus", "--input", str(tmp_path)]) == code
    capsys.readouterr()
    # each file's code is the one verify exits with on it
    for name, status in zip(files, statuses):
        assert run(["verify", "--input", str(tmp_path / name)]) == cli.STATUSES.index(status)
    capsys.readouterr()


def _planes_30(tmp_path) -> Path:
    """30 generic planes in P^3, rows (1, t, t^2, t^3), t = 1..30: 4,527 flats."""
    path = tmp_path / "planes_30.arr"
    path.write_text(arrangement_text(4, [[t**k for k in range(4)] for t in range(1, 31)]), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    ("command", "first"),
    [(["lattice"], b"4527 flats\n"), (["lattice", "--json"], b"{\n"), (["csm"], None)],
    ids=["mid_output", "mid_json", "before_the_last_flush"],
)
def test_closed_stdout_exits_2_without_a_traceback(tmp_path, command, first):
    # planes_30's lattice prints 4,527 flats, about 180 kB as text and 1.9 MB
    # as JSON, more than a pipe holds, so the writer meets the pipe closed
    # after one line while it prints, _json in the middle of a render;
    # csm's two lines wait in stdout's buffer, block-buffered as by
    # default, for the last flush
    path = _planes_30(tmp_path) if first else THREE_CONC
    proc = subprocess.Popen(
        [sys.executable, "-m", "arrcsm", *command, "--input", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
    )
    if first:
        assert proc.stdout.readline() == first
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert b"Traceback" not in err and b"Exception ignored" not in err


# str values as json.dumps escapes them: quotes, backslashes, control
# characters, non-ASCII characters and lone surrogates among the rest
_json_text = st.text(
    st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", " ", "\ud800", "\udfff"]),
        st.characters(exclude_categories=()),
    ),
    max_size=8,
)
_json_scalars = st.one_of(
    _json_text,
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
    st.booleans(),
    st.none(),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_json_text, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_json_values)
def test_json_writer_matches_json_dumps(value):
    pieces = []
    cli._json(value, pieces.append)
    assert "".join(pieces) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), {1: "a"}, {"a": [0.0]}, [{"b": {2: 3}}]])
def test_json_writer_refuses_what_is_not_in_a_payload(value):
    # json.dumps writes floats and int keys; no payload holds one
    with pytest.raises(TypeError):
        cli._json(value, [].append)


class _CountingStdout:
    """A stdout that keeps only the number of characters written to it."""

    chars = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        return len(text)

    def flush(self) -> None:
        pass


def test_lattice_json_holds_no_copy_of_its_output(monkeypatch, tmp_path):
    # planes_30's lattice --json is 1.9 MB, written piece by piece: the
    # run's traced peak exceeds that of the lattice and its flats alone by
    # less than half the output's length, so no copy of the output is held
    path = _planes_30(tmp_path)
    argv = ["lattice", "--input", str(path), "--json"]
    sink = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    assert run(argv) == 0  # untraced: one-time allocations (the parser, first-call caches) stay out of both peaks
    written, sink.chars = sink.chars, 0

    def peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    alone = peak(lambda: build_lattice(parse_file(path)).flats)
    rendered = peak(lambda: run(argv))
    assert sink.chars == written > 1_900_000
    assert rendered - alone <= written / 2, (alone, rendered, written)


@pytest.mark.parametrize("name", sorted(p.name for p in (REPO / "tests" / "golden").glob("*.json")))
def test_every_golden_reencodes_to_its_own_bytes(name):
    text = (REPO / "tests" / "golden" / name).read_text(encoding="utf-8")
    pieces = []
    cli._json(json.loads(text), pieces.append)
    assert "".join(pieces) + "\n" == text
