"""Every module of the package uses each name it imports, and every
public function or class is used by the package or documented.

The package root re-exports names, so it is left out.
"""

import ast
import re
from pathlib import Path

import pytest

import invseries

README = Path(__file__).resolve().parents[1] / "README.md"
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


def unused_public_names(sources: dict, readme: str) -> list[str]:
    """Public top-level functions and classes that no other top-level
    statement of the modules reads and the README does not name.

    ``sources`` maps a module name to its source.  A name read only inside
    its own definition (recursion) counts as unused: code that only the
    tests call belongs in the tests.
    """
    defined, read = {}, set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if not own.startswith("_"):
                    defined[own] = module
            names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            read |= names - {own}
    return sorted(
        f"{module}.{name}"
        for name, module in defined.items()
        if name not in read and not re.search(rf"\b{name}\b", readme)
    )


def test_the_check_sees_a_test_only_name():
    sources = {
        "a": "def used():\n    return 1\n\ndef only_tests(n):\n    return only_tests(n - 1)\n",
        "b": "from .a import used\n\nclass Documented:\n    x = used()\n",
    }
    assert unused_public_names(sources, "`Documented` is public") == ["a.only_tests"]


def test_every_public_name_is_used_or_documented():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unused_public_names(sources, README.read_text(encoding="utf-8")) == []
