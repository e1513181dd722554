"""Every name a module imports at top level is used somewhere in it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "blockalg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Top-level import bindings never read as a name; `from __future__`
    imports are directives, and a name used only inside a string does not
    count."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_modules_found():
    assert {p.name for p in MODULES} >= {"core.py", "harness.py", "lattice.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    src = (
        "from __future__ import annotations\n"
        "import os, re as regex\n"
        "from typing import Optional, Union\n"
        "x: Optional[int] = regex.compile('os')\n"
    )
    assert unused_imports(src) == ["os", "Union"]
