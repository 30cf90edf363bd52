"""What arrcsm answers does not depend on how the input is written.

Random line arrangements in P^2 (up to 7 lines) and plane arrangements
in P^3 (up to 6 planes), with coefficients in -2..2, each run through the
CLI as written and rewritten:

- with the forms permuted, verify's verdict, exponents and routes,
  chi, and the flats as (codim, mu, hyperplanes) with the indices mapped
  through the permutation, are unchanged;
- with one form scaled by a nonzero rational, written as p/q tokens,
  verify --json writes the same bytes;
- in coordinates changed by an integer unimodular matrix (a permutation,
  sign flips and one shear), verify's verdict, exponents and routes and
  chi are unchanged.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from arrcsm.arrangement import LinearForm
from arrcsm.cli import run
from property_checks import arrangement_text


def _output(command: str, nvars: int, rows) -> tuple[int, str]:
    """Exit code and stdout of `arrcsm <command> --json` on rows, from a file named a.arr."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "a.arr"
        path.write_text(arrangement_text(nvars, rows), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run([command, "--input", str(path), "--json"])
    return code, out.getvalue()


def _result(command: str, nvars: int, rows) -> dict:
    code, out = _output(command, nvars, rows)
    assert code == 0, (command, rows)
    return json.loads(out)["result"]


def _verdict(nvars: int, rows) -> tuple:
    """verify's verdict, exponents and routes, and chi."""
    verified = _result("verify", nvars, rows)
    chi = _result("charpoly", nvars, rows)["ascending_coeffs"]
    return verified["free"], verified["exponents"], verified["routes"], chi


@st.composite
def small_arrangements(draw):
    """nvars and nvars or more distinct forms, none proportional to another: up to 7 in P^2, 6 in P^3."""
    nvars = draw(st.sampled_from((3, 4)))
    size = draw(st.integers(nvars, 10 - nvars))
    bound = draw(st.sampled_from((1, 2)))  # entries in -1..1 meet in more multiple points
    form = st.tuples(*[st.integers(-bound, bound)] * nvars).filter(any)
    rows = st.lists(form, min_size=size, max_size=size, unique_by=lambda f: LinearForm.make(f).coeffs)
    return nvars, draw(rows)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(small_arrangements(), st.data())
def test_permuting_the_forms_changes_nothing_but_the_labels(case, data):
    nvars, rows = case
    perm = data.draw(st.permutations(range(len(rows))))
    permuted = [rows[k] for k in perm]
    assert _verdict(nvars, permuted) == _verdict(nvars, rows)

    def flats(rows, label):
        return {(f["codim"], f["mu"], frozenset(label[k] for k in f["hyperplanes"]))
                for f in _result("lattice", nvars, rows)["flats"]}

    assert flats(permuted, perm) == flats(rows, range(len(rows)))


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(small_arrangements(), st.data())
def test_scaling_a_form_leaves_verify_byte_identical(case, data):
    nvars, rows = case
    i = data.draw(st.integers(0, len(rows) - 1))
    scale = Fraction(data.draw(st.integers(-5, 5).filter(bool)), data.draw(st.integers(1, 5)))
    scaled = list(rows)
    scaled[i] = [f"{(a * scale).numerator}/{(a * scale).denominator}" for a in rows[i]]
    assert _output("verify", nvars, scaled) == _output("verify", nvars, rows)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(small_arrangements(), st.data())
def test_a_unimodular_change_of_coordinates_changes_nothing(case, data):
    # a form a becomes a U, U = (permutation) (signs) (shear): the form in
    # the coordinates x' with x = U x'
    nvars, rows = case
    perm = data.draw(st.permutations(range(nvars)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=nvars, max_size=nvars))
    i, j = data.draw(st.permutations(range(nvars)))[:2]
    k = data.draw(st.integers(-2, 2).filter(bool))
    changed = []
    for row in rows:
        new = [row[perm[c]] * signs[c] for c in range(nvars)]
        new[j] += k * new[i]
        changed.append(new)
    assert _verdict(nvars, changed) == _verdict(nvars, rows)
