"""Every top-level function, class and assigned name of the package is used
by the package."""

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


def _defined(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines or assigns."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _imports(tree: ast.Module, module: str, name: str) -> bool:
    """Whether tree has `from .module import name` at top level."""
    return any(
        isinstance(n, ast.ImportFrom) and n.level == 1 and n.module == module
        and any(a.name == name for a in n.names)
        for n in tree.body
    )


def unreferenced(src: Path) -> list[str]:
    """Top-level definitions and assignments of src/*.py that nothing names
    outside their own statement, as "module.name".  A public name counts
    across every module but __init__.py; a private _name counts only in its
    own module and in modules that import it from there by name, so two
    modules' private constants of one name do not hide each other."""
    trees = {
        p.stem: ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted(src.glob("*.py"))
        if p.name != "__init__.py"
    }
    refs = {m: _names(tree) for m, tree in trees.items()}
    public = sum(refs.values(), Counter())
    out = []
    for m, tree in trees.items():
        for node in tree.body:
            for name in _defined(node):
                if name.startswith("_"):
                    n = sum(
                        refs[o][name] for o, t in trees.items()
                        if o == m or _imports(t, m, name)
                    )
                else:
                    n = public[name]
                if n == _names(node)[name]:
                    out.append(f"{m}.{name}")
    return sorted(out)


def test_every_definition_is_used():
    assert sorted(name.split(".")[1] for name in unreferenced(SRC)) == sorted(KEPT)


def test_guard_flags_an_unused_definition(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import used, unused\n")
    (tmp_path / "a.py").write_text(
        "_K = 2\n_SHARED = 0\nLIMIT = _K\n\n"
        "def used():\n    return 1\n\n"
        "def unused():\n    return unused\n\n"
        "def _helper():\n    return 3\n\n"
        "class C:\n    x = used()\n"
    )
    (tmp_path / "b.py").write_text(
        "from . import a\nfrom .a import _helper\n\n_SHARED = 1\n\n"
        "y = a.C, a.LIMIT, _helper(), _SHARED\n"
    )
    assert unreferenced(tmp_path) == ["a._SHARED", "a.unused", "b.y"]
