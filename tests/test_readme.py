"""The README's examples run as shown, from the repository root."""

import re
import shlex
from pathlib import Path

import pytest

from arrcsm.cli import run

REPO = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", (REPO / "README.md").read_text(encoding="utf-8"), re.M | re.S)
SESSIONS = [body for lang, body in BLOCKS if not lang and body.startswith("$ arrcsm ")]
PYTHON = [body for lang, body in BLOCKS if lang == "python"]


def _mask_elapsed(text: str) -> str:
    return re.sub(r"^elapsed: .*$", "elapsed: ...", text, flags=re.M)


def test_the_readme_has_its_examples():
    assert len(SESSIONS) == 3 and len(PYTHON) == 1


@pytest.mark.parametrize("session", SESSIONS, ids=lambda s: s.split("\n", 1)[0][2:])
def test_command_line_session(session, monkeypatch, capsys):
    command, expected = session.split("\n", 1)
    monkeypatch.chdir(REPO)
    assert run(shlex.split(command)[2:]) == 0
    out, err = capsys.readouterr()
    assert (_mask_elapsed(out), err) == (_mask_elapsed(expected), "")


def test_library_example(monkeypatch):
    monkeypatch.chdir(REPO)
    exec(compile(PYTHON[0], "README.md", "exec"), {})
