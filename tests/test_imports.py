"""Every module of the package uses each name it imports.

The package root re-exports names, so it is left out.
"""

import ast
from pathlib import Path

import pytest

import invseries

MODULES = sorted(
    path
    for path in Path(invseries.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {n})" for name, n in imported.items() if name not in read]


def test_the_check_sees_an_unused_import():
    source = (
        "from dataclasses import dataclass\n"
        "import os.path\n"
        "import re\n"
        "re.compile('x')\n"
    )
    assert unused_imports(source) == ["dataclass (line 1)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
