"""Every top-level function, class and assigned name of the package is used
by the package, and so is every method and property of its classes.

Dunder methods (__eq__, __call__, __len__, ...) are out of the guard's reach:
Python calls them implicitly, through operators, calls and protocols, so no
use of them names them.
"""

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


def _trees(src: Path) -> dict[str, ast.Module]:
    """The parsed modules of src/*.py but __init__.py, by module name."""
    return {
        p.stem: ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted(src.glob("*.py"))
        if p.name != "__init__.py"
    }


def unreferenced(src: Path) -> list[str]:
    """Top-level definitions and assignments of src/*.py that nothing names
    outside their own statement, as "module.name".  A public name counts
    across every module but __init__.py; a private _name counts only in its
    own module and in modules that import it from there by name, so two
    modules' private constants of one name do not hide each other."""
    trees = _trees(src)
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


def unused_methods(src: Path) -> list[str]:
    """Methods and properties defined in a class body of src/*.py, dunders
    aside, whose name nothing in those modules reads outside the method's own
    definition, as "module.Class.name"."""
    trees = _trees(src)
    refs = sum((_names(tree) for tree in trees.values()), Counter())
    out = []
    for m, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if refs[name] == _names(node)[name]:
                    out.append(f"{m}.{cls.name}.{name}")
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


def test_every_method_is_used():
    assert unused_methods(SRC) == []


def test_guard_flags_an_unused_method(tmp_path):
    (tmp_path / "a.py").write_text(
        "class C:\n"
        "    def __len__(self):\n        return 0\n\n"
        "    def used(self):\n        return self.size\n\n"
        "    @property\n    def size(self):\n        return 1\n\n"
        "    def unused(self):\n        return self.unused()\n\n"
        "    def _helper(self):\n        return 2\n"
    )
    (tmp_path / "b.py").write_text("from .a import C\n\ny = C().used()\n")
    assert unused_methods(tmp_path) == ["a.C._helper", "a.C.unused"]
