"""Byte-for-byte golden JSON for every subcommand.

Each file tests/golden/<stem>.<command>.json is the exact stdout of
`arrcsm <command> --input corpus/<stem>.arr --json [extra args]`; the
files tests/golden/<command>.json hold the commands that read no single
.arr file.  Every case must also exit 0.  Regenerate them, only when an
output change is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
from pathlib import Path

import pytest

from arrcsm.cli import run

REPO = Path(__file__).resolve().parents[1]
CORPUS = REPO / "corpus"
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


def render(case: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(CASES[case])
    assert code == 0, f"{case} exited {code}"
    return out.getvalue()


def test_every_corpus_file_has_its_goldens():
    expected = {f"{case}.json" for case in CASES}
    assert len(expected) == 80
    assert {p.name for p in GOLDEN.glob("*.json")} == expected


@pytest.mark.parametrize("case", sorted(CASES))
def test_json_output_matches_golden(case):
    golden = (GOLDEN / f"{case}.json").read_bytes()
    assert render(case).encode("utf-8") == golden


if __name__ == "__main__":
    for case in CASES:
        (GOLDEN / f"{case}.json").write_bytes(render(case).encode("utf-8"))
