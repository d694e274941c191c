"""Every module-level import is read somewhere in its file.

`src/quatbox/__init__.py` is left out: its imports are the package's re-exports.
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
