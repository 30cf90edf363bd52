"""Byte-for-byte golden JSON for every subcommand, and golden text for four.

Each file tests/golden/<stem>.<command>.json is the exact stdout of
`arrcsm <command> --input corpus/<stem>.arr --json [extra args]`; the
files tests/golden/<command>.json hold the commands that read no single
.arr file.  tests/golden/inputs/<stem>.<command>.json is the stdout of
`arrcsm <command> --input tests/inputs/<stem>.arr --json` for verify,
freeness and charpoly, on the inputs whose answers come from outside
arrcsm (tests/test_known_answers.py).

The text goldens are the stdout without --json: <stem>.verify.txt and
<stem>.report.txt (report with --primes 101,103 --max-degree 4) for
every corpus file, corpus.txt for the corpus directory, and
<stem>.lattice.txt (--primes 101,103) for two corpus files.  The one
run-dependent line of text output, `elapsed: <ms> ms`, is compared with
its time replaced by MASK.  Every case must also exit 0.  Regenerate
every golden, only when an output change is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

from arrcsm.cli import run

REPO = Path(__file__).resolve().parents[1]
CORPUS = REPO / "corpus"
INPUTS = Path(__file__).resolve().parent / "inputs"
GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = {
    "charpoly": [],
    "csm": [],
    "derivations": ["--max-degree", "4"],
    "freeness": [],
    "lattice": ["--primes", "101,103"],
    "report": ["--primes", "101,103", "--max-degree", "4"],
    "verify": [],
}
CASES = {
    f"{path.stem}.{command}": [command, "--input", str(path), "--json", *extra]
    for path in sorted(CORPUS.glob("*.arr"))
    for command, extra in COMMANDS.items()
}
CASES.update(
    {
        "corpus": ["corpus", "--input", str(CORPUS), "--json"],
        "example41": ["example41", "--m", "3", "--n", "3", "--json"],
        "projection": ["projection", "--d", "2", "--e", "3", "--n", "3", "--json"],
    }
)

INPUT_CASES = {
    f"inputs/{path.stem}.{command}": [command, "--input", str(path), "--json"]
    for path in sorted(INPUTS.glob("*.arr"))
    for command in ("charpoly", "freeness", "verify")
}
JSON_CASES = {**CASES, **INPUT_CASES}

TEXT_CASES = {
    f"{path.stem}.{command}.txt": [command, "--input", str(path), *extra]
    for path in sorted(CORPUS.glob("*.arr"))
    for command, extra in (("verify", []), ("report", COMMANDS["report"]))
}
TEXT_CASES.update(
    {
        f"{stem}.lattice.txt": ["lattice", "--input", str(CORPUS / f"{stem}.arr"), "--primes", "101,103"]
        for stem in ("braid_essential", "four_generic")
    }
)
TEXT_CASES["corpus.txt"] = ["corpus", "--input", str(CORPUS)]
ELAPSED = re.compile(r"^elapsed: \d+\.\d ms$", re.M)
MASK = "elapsed: ... ms"


def render(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    assert code == 0, f"{argv} exited {code}"
    return out.getvalue()


def masked(argv: list[str]) -> str:
    """The text output of argv with its elapsed time masked."""
    return ELAPSED.sub(MASK, render(argv))


def test_every_corpus_file_has_its_goldens():
    expected = {f"{case}.json" for case in CASES}
    assert len(expected) == 80
    assert {p.name for p in GOLDEN.glob("*.json")} == expected


def test_every_text_case_has_its_golden():
    assert len(TEXT_CASES) == 25
    assert {p.name for p in GOLDEN.glob("*.txt")} == set(TEXT_CASES)


def test_every_input_file_has_its_goldens():
    expected = {f"{case}.json" for case in INPUT_CASES}
    assert len(expected) == 18
    assert {f"inputs/{p.name}" for p in (GOLDEN / "inputs").glob("*.json")} == expected


@pytest.mark.parametrize("case", sorted(JSON_CASES))
def test_json_output_matches_golden(case):
    golden = (GOLDEN / f"{case}.json").read_bytes()
    assert render(JSON_CASES[case]).encode("utf-8") == golden


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_text_output_matches_golden(name):
    assert masked(TEXT_CASES[name]).encode("utf-8") == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for case, argv in JSON_CASES.items():
        (GOLDEN / f"{case}.json").write_bytes(render(argv).encode("utf-8"))
    for name, argv in TEXT_CASES.items():
        (GOLDEN / name).write_bytes(masked(argv).encode("utf-8"))
