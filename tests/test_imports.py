"""Every name a package module imports is used in it."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gfcring").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by the import statements of `source` that no Name node
    reads; `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             or isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_guard_finds_an_unused_import():
    assert unused_imports("import math\nimport os.path\nos.sep\n") == ["math"]
    assert unused_imports("from a import b as c, d\nfrom __future__ import annotations\n"
                          "def f(x: d) -> None: ...\n") == ["c"]


# __init__ imports only to re-export the public names.
@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
