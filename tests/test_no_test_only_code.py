"""No code under src/ that only the tests reach.

Every module-level class and function, private ones included, and every
public non-dunder method, of src/arrcsm/*.py (the package's __init__.py
left out) must be used by name somewhere in those modules outside its
own definition.  An import is not a use.  The references the tests
compare shipped results against live in tests/oracles.py, not in src/.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "arrcsm"


def _modules():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert paths, f"no modules under {SRC}"
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in paths}


def _defs(tree: ast.Module):
    """(qualified name, name, def node) of module classes and functions, and public methods."""
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.ClassDef, ast.FunctionDef)) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def _uses(node: ast.AST) -> Counter:
    """Names read in node: bare names and attribute names."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
    return found


def test_every_function_is_used_in_src():
    modules = _modules()
    total = sum((_uses(tree) for tree in modules.values()), Counter())
    unused = []
    for stem, tree in modules.items():
        for qualname, name, node in _defs(tree):
            if total[name] == _uses(node)[name]:
                unused.append(f"{stem}.{qualname}")
    assert unused == [], f"only tests reach {unused}"
