"""Every module-level import is read somewhere in its file, and no package module
imports another module's underscore name.

`src/quatbox/__init__.py` is left out of the first check: its imports are the
package's re-exports.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in ("src/quatbox", "scripts", "tests")
    for path in (ROOT / folder).glob("*.py")
    if path != ROOT / "src" / "quatbox" / "__init__.py"
)
PACKAGE = sorted((ROOT / "src" / "quatbox").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression reads."""
    tree = ast.parse(source)
    bound = [
        (alias.asname or alias.name).partition(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    assert unused_imports("import math\nfrom os import path, sep\nprint(path)\n") == [
        "math", "sep"
    ]
    assert unused_imports("import quatbox.chsh\nquatbox.chsh.lhv_optimum()\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_imports(source: str) -> list[str]:
    """Underscore names that the module's `from ... import` statements take."""
    return [
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_private_imports_are_found():
    source = "from .qlinalg import _SIGN, INV_SQRT2\ndef f():\n    from . import _cache\n"
    assert private_imports(source) == ["_SIGN", "_cache"]
    assert private_imports("from __future__ import annotations\nimport numpy as _np\n") == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []
