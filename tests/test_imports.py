"""Every module of the package uses each name it imports, every public
function, class, method or property is used by the package or
documented, and every private top-level function or class is read.

The package root is checked too: it binds only ``__version__``, so a
re-export that creeps back in fails as an unused import.
"""

import ast
import re
from pathlib import Path

import pytest

import invseries

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(Path(invseries.__file__).parent.glob("*.py"))


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


def _read_names(node) -> set:
    """Every name and attribute name that ``node`` reads."""
    names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    return names | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _units(stmt):
    """(qualified name or "", node) for a top-level statement, then for each
    method or property of a public class."""
    named = isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
    yield (stmt.name if named else ""), stmt
    if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
        for member in stmt.body:
            if isinstance(member, ast.FunctionDef):
                yield f"{stmt.name}.{member.name}", member


def unused_public_names(sources: dict, readme: str) -> list[str]:
    """Public top-level functions and classes, and public methods and
    properties of public classes, that no other statement of the modules
    reads and the README does not name.

    ``sources`` maps a module name to its source.  A name read only inside
    its own definition (recursion), its class or its members counts as
    unused: code that only the tests call belongs in the tests.  A method
    counts as read wherever its name is read, on any object.
    """
    defined, units = {}, []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            for qualname, node in _units(stmt):
                units.append((qualname, _read_names(node)))
                if qualname and not qualname.rpartition(".")[2].startswith("_"):
                    defined[qualname] = module

    def unused(qualname):
        own = qualname.rpartition(".")[2]
        related = (qualname, qualname.partition(".")[0])
        return not re.search(rf"\b{own}\b", readme) and not any(
            own in names
            for q, names in units
            if q not in related and not q.startswith(qualname + ".")
        )

    return sorted(f"{module}.{q}" for q, module in defined.items() if unused(q))


def test_the_check_sees_a_test_only_name():
    sources = {
        "a": "def used():\n    return 1\n\ndef only_tests(n):\n    return only_tests(n - 1)\n",
        "b": "from .a import used\n\nclass Documented:\n    x = used()\n",
    }
    assert unused_public_names(sources, "`Documented` is public") == ["a.only_tests"]


def test_the_check_sees_a_test_only_method():
    sources = {
        "a": (
            "class Thing:\n"
            "    def used(self):\n        return self._helper()\n\n"
            "    def _helper(self):\n        return 1\n\n"
            "    @property\n    def size(self):\n        return self.used()\n\n"
            "    def only_tests(self):\n        return self.only_tests()\n\n"
            "class _Private:\n    def unread(self):\n        return 0\n"
        ),
        "b": "from .a import Thing\n\nSIZE = Thing().size\n",
    }
    assert unused_public_names(sources, "") == ["a.Thing.only_tests"]


def test_every_public_name_is_used_or_documented():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unused_public_names(sources, README.read_text(encoding="utf-8")) == []


def unused_private_names(sources: dict) -> list[str]:
    """Private top-level functions and classes that no other top-level
    statement of the modules reads; reads inside their own definition
    (recursion) do not count."""
    bodies = {module: ast.parse(source).body for module, source in sources.items()}
    reads = [(stmt, _read_names(stmt)) for body in bodies.values() for stmt in body]
    return sorted(
        f"{module}.{stmt.name}"
        for module, body in bodies.items()
        for stmt in body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_")
        and not any(stmt.name in names for other, names in reads if other is not stmt)
    )


def test_the_check_sees_a_private_orphan():
    sources = {
        "a": (
            "def _read():\n    return 1\n\n"
            "def _read_elsewhere():\n    return 2\n\n"
            "def _orphan(n):\n    return _orphan(n - 1)\n\n"
            "class _Orphan:\n    pass\n\n"
            "def public():\n    return _read()\n"
        ),
        "b": "from . import a\n\nX = a._read_elsewhere()\n",
    }
    assert unused_private_names(sources) == ["a._Orphan", "a._orphan"]


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unused_private_names(sources) == []


def test_only_within_depth_and_the_parser_name_recursion_error():
    """Every evaluation outside ``expr`` runs inside ``errors.within_depth``,
    which turns a RecursionError into InvseriesError; parse depth is the
    parser's own decision.  No other top-level statement names the error."""
    namers = []
    for path in MODULES:
        source = path.read_text(encoding="utf-8")
        for stmt in ast.parse(source).body:
            if "RecursionError" in ast.get_source_segment(source, stmt):
                namers.append((path.stem, getattr(stmt, "name", "")))
    assert namers == [("errors", "within_depth"), ("expr", "parse_expression")]
