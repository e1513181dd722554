"""Every top-level function and class of the package is used by the package."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "blockalg"

# public entry points that nothing inside the package calls
KEPT = {
    "default_configs": "the stock configuration matrix, run by the tests and the docs",
    "lattice_from_strs": "the constructor from spec literals, as written in spec files",
    "rerun_failure": "replays a suite's failure record from its literals",
}


def _names(node: ast.AST) -> Counter:
    """How often each identifier is read as a name or an attribute under node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def unreferenced(src: Path) -> list[str]:
    """Top-level functions and classes of src/*.py that no module of src
    names, counting neither their own definition nor __init__.py."""
    trees = [
        ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted(src.glob("*.py"))
        if p.name != "__init__.py"
    ]
    refs = sum((_names(tree) for tree in trees), Counter())
    return sorted(
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and refs[node.name] == _names(node)[node.name]
    )


def test_every_definition_is_used():
    assert unreferenced(SRC) == sorted(KEPT)


def test_guard_flags_an_unused_definition(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used, unused\n")
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def unused():\n    return unused\n\n"
        "class C:\n    x = used()\n"
    )
    (tmp_path / "b.py").write_text("from . import a\n\ny = a.C\n")
    assert unreferenced(tmp_path) == ["unused"]
