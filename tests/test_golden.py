"""Byte-for-byte golden JSON for every subcommand.

Each file tests/golden/<stem>.<command>.json is the exact stdout of
`arrcsm <command> --input corpus/<stem>.arr --json [extra args]`; the
files tests/golden/<command>.json hold the commands that read no single
.arr file.  tests/golden/<stem>.lattice.txt is the text output of
`arrcsm lattice --input corpus/<stem>.arr --primes 101,103` for two of
them.  tests/golden/inputs/<stem>.<command>.json is the stdout of
`arrcsm <command> --input tests/inputs/<stem>.arr --json` for verify,
freeness and charpoly, on the inputs whose answers come from outside
arrcsm (tests/test_known_answers.py).  Every case must also exit 0.
Regenerate both sets, only when an output change is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
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
    f"{stem}.lattice.txt": ["lattice", "--input", str(CORPUS / f"{stem}.arr"), "--primes", "101,103"]
    for stem in ("braid_essential", "four_generic")
}


def render(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    assert code == 0, f"{argv} exited {code}"
    return out.getvalue()


def test_every_corpus_file_has_its_goldens():
    expected = {f"{case}.json" for case in CASES}
    assert len(expected) == 80
    assert {p.name for p in GOLDEN.glob("*.json")} == expected


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
    assert render(TEXT_CASES[name]).encode("utf-8") == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    for case, argv in JSON_CASES.items():
        (GOLDEN / f"{case}.json").write_bytes(render(argv).encode("utf-8"))
    for name, argv in TEXT_CASES.items():
        (GOLDEN / name).write_bytes(render(argv).encode("utf-8"))
