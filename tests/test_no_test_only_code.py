"""No code under src/ that only the tests reach.

Every module-level class and function, private ones included, and every
public non-dunder method, of src/arrcsm/*.py (the package's __init__.py
left out) must be used by name somewhere in those modules outside its
own definition.  An import is not a use.  The references the tests
compare shipped results against live in tests/oracles.py, not in src/.
The one other reader counted is the benchmark's tracer, which looks up
the class methods in perfbench/bench_trace.py's METHODS by attribute
name: a method it wraps stays while the tracer names it.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "arrcsm"
BENCH_TRACE = SRC.parents[1] / "perfbench" / "bench_trace.py"


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


def _traced_methods() -> Counter:
    """The class and method names of bench_trace.METHODS, (module, class, method) triples."""
    tree = ast.parse(BENCH_TRACE.read_text(encoding="utf-8"))
    (methods,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["METHODS"]]
    return Counter(name for _, cls, method in methods for name in (cls, method))


def test_every_function_is_used_in_src():
    modules = _modules()
    total = sum((_uses(tree) for tree in modules.values()), _traced_methods())
    unused = []
    for stem, tree in modules.items():
        for qualname, name, node in _defs(tree):
            if total[name] == _uses(node)[name]:
                unused.append(f"{stem}.{qualname}")
    assert unused == [], f"only tests reach {unused}"
