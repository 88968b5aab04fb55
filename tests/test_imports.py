"""Import lint: every name a ``dgkoszul`` module imports is used in it.

No linter ships with the project, so this stdlib ``ast`` check stands in
for flake8's F401.  An import meant as a re-export is marked on its line
with ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

import dgkoszul

PACKAGE = Path(dgkoszul.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(path: Path) -> list:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line}: {name}"
                  for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_lint_catches_an_unused_import(tmp_path):
    p = tmp_path / "mod.py"
    p.write_text("import json\nfrom os import path, sep\n"
                 "from sys import argv  # noqa: F401\n"
                 "def f():\n    return path, sep\n")
    assert unused_imports(p) == ["mod.py:1: json"]
