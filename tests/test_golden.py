"""Byte-for-byte golden JSON for the derivation search on every corpus file.

Each file tests/golden/<stem>.<command>.json is the exact stdout of
`arrcsm <command> --input corpus/<stem>.arr --json [extra args]`.
Regenerate them, only when an output change is intended, with

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
    "derivations": ["--max-degree", "4"],
    "freeness": [],
    "verify": [],
}
CASES = [(path.stem, command) for path in sorted(CORPUS.glob("*.arr")) for command in COMMANDS]


def render(stem: str, command: str) -> str:
    argv = [command, "--input", str(CORPUS / f"{stem}.arr"), "--json", *COMMANDS[command]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    assert code == 0, f"{command} on {stem} exited {code}"
    return out.getvalue()


def test_every_corpus_file_has_its_goldens():
    expected = {f"{stem}.{command}.json" for stem, command in CASES}
    assert len(expected) == 33
    assert {p.name for p in GOLDEN.glob("*.json")} == expected


@pytest.mark.parametrize("stem,command", CASES, ids=[f"{s}.{c}" for s, c in CASES])
def test_json_output_matches_golden(stem, command):
    golden = (GOLDEN / f"{stem}.{command}.json").read_bytes()
    assert render(stem, command).encode("utf-8") == golden


if __name__ == "__main__":
    for stem, command in CASES:
        (GOLDEN / f"{stem}.{command}.json").write_bytes(render(stem, command).encode("utf-8"))
