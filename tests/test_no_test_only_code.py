"""No code under src/ that only the tests reach.

Every public module-level function and every public non-dunder method
of src/arrcsm/*.py (the package's __init__.py left out) must be used by
name somewhere in those modules outside its own definition.  An import
is not a use.  The only exceptions are the independent oracles below,
which the tests compare shipped results against.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "arrcsm"

ORACLES = {
    "is_logarithmic": "membership by reducing theta(alpha) modulo each form",
    "is_logarithmic_for_polynomial": "membership by dividing theta(Q) by the product Q",
    "intersection_property_check": "D(A)_d rebuilt one hyperplane at a time by intersect_spans",
    "log_derivation_space": "one degree's kernel alone, without the generator search",
    "poly_from_roots": "the Terao factorization check of the characteristic polynomial",
    "poly_det": "the polynomial Saito determinant that saito_scalar is checked against",
    "Arrangement.defining_polynomial": "Q as a product of forms, for checking det M = c * Q",
    "QMatrix.rank": "the rank-nullity reference for kernel_basis",
}


def _modules():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert paths, f"no modules under {SRC}"
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in paths}


def _public_defs(tree: ast.Module):
    """(qualified name, name, def node) of public module functions and methods."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            members = [(f"{node.name}.", item) for item in node.body]
        else:
            members = [("", node)]
        for prefix, item in members:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                yield prefix + item.name, item.name, item


def _uses(node: ast.AST) -> Counter:
    """Names read in node: bare names and attribute names."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def test_every_public_function_is_used_in_src():
    modules = _modules()
    total = sum((_uses(tree) for tree in modules.values()), Counter())
    unused = []
    for stem, tree in modules.items():
        for qualname, name, node in _public_defs(tree):
            if qualname not in ORACLES and total[name] == _uses(node)[name]:
                unused.append(f"{stem}.{qualname}")
    assert unused == [], f"only tests reach {unused}"


def test_every_oracle_is_still_defined():
    names = {qualname for tree in _modules().values() for qualname, _, _ in _public_defs(tree)}
    assert set(ORACLES) <= names
