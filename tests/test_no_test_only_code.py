"""No code under src/ that only the tests reach.

Every public module-level class and function, and every public
non-dunder method, of src/arrcsm/*.py (the package's __init__.py left
out) must be used by name somewhere in those modules outside its own
definition.  An import is not a use.  The references the tests compare
shipped results against live in tests/oracles.py, not in src/.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "arrcsm"


def _modules():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert paths, f"no modules under {SRC}"
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in paths}


def _public_defs(tree: ast.Module):
    """(qualified name, name, def node) of public module classes and functions, and methods."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            members = [("", node)] + [(f"{node.name}.", item) for item in node.body]
        else:
            members = [("", node)]
        for prefix, item in members:
            if isinstance(item, (ast.ClassDef, ast.FunctionDef)) and not item.name.startswith("_"):
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
            if total[name] == _uses(node)[name]:
                unused.append(f"{stem}.{qualname}")
    assert unused == [], f"only tests reach {unused}"
