import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from arrcsm.cli import corpus_runner, main, run

REPO = Path(__file__).resolve().parents[1]
CORPUS = REPO / "corpus"
THREE_CONC = CORPUS / "three_concurrent.arr"
FOUR_GENERIC = CORPUS / "four_generic.arr"
BOOLEAN = CORPUS / "boolean_triangle.arr"


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
    "argv,builds,searches",
    [
        (["report", "--primes", "101", "--max-degree", "4"], 1, 1),
        (["derivations", "--max-degree", "4"], 0, 1),
        (["freeness"], 0, 1),
        # the second build is pinned by perfbench/test_bench.py
        (["verify", "--primes", "101"], 2, 1),
        (["corpus"], 1, 1),
    ],
    ids=["report", "derivations", "freeness", "verify", "corpus"],
)
def test_each_stage_runs_once(stage_calls, tmp_path, capsys, argv, builds, searches):
    target = THREE_CONC
    if argv[0] == "corpus":  # a directory holding that one file
        target = tmp_path
        shutil.copy(THREE_CONC, tmp_path)
    # the search on three_concurrent stops at degree 2, below --max-degree
    assert run([argv[0], "--input", str(target), "--json", *argv[1:]]) == 0
    capsys.readouterr()
    assert stage_calls == {"build_lattice": builds, "minimal_generators": searches}


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


def test_importing_the_cli_does_not_load_numpy():
    code = "import sys, arrcsm.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_oracle_point_bound_is_an_input_error(capsys):
    code = run(["lattice", "--input", str(CORPUS / "tetrahedron_p3.arr"), "--primes", "997"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: oracle chart of 997^3 points exceeds the bound" in captured.err
    assert captured.out == ""


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


def _raise_internal(*args, **kwargs):
    raise RuntimeError("internal consistency failure: injected by the test")


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
