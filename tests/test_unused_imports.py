"""Every module reads each name it imports, and every private helper of
the library is used somewhere.

No linter is a declared dependency, so these are small stdlib ``ast``
checks over the library, the tests and the scripts.  The package
``__init__.py`` imports names in order to re-export them and is skipped
by the import check.  A private (``_name``) function, class or method of
``src/parkposet`` counts as used when the name is read, as a name or as
an attribute, anywhere in the library, the tests or the scripts; this
catches helpers left orphaned when their last caller goes.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "parkposet").glob("*.py"))
SOURCES = [*LIBRARY, *(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
MODULES = sorted(p for p in SOURCES if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def private_definitions(source: str) -> set[str]:
    """Private, non-dunder functions and classes of a module, and the
    private methods of its classes."""
    defined = set()
    for node in ast.parse(source).body:
        members = node.body if isinstance(node, ast.ClassDef) else []
        for item in [node, *members]:
            if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                name = item.name
                if name.startswith("_") and not name.endswith("__"):
                    defined.add(name)
    return defined


def referenced_names(source: str) -> set[str]:
    """Names read as a name or as an attribute."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def test_detector_flags_unused_names():
    source = "import os.path, sys\nfrom math import pi as p, tau\nprint(os, tau)\n"
    assert unused_imports(source) == ["p", "sys"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_unreferenced_private_names():
    source = (
        "def _used(): pass\n"
        "def _orphan(): pass\n"
        "class _Box:\n"
        "    def _peek(self): pass\n"
        "    def __init__(self): _used()\n"
        "    def run(self): return self._peek\n"
        "def wrapper():\n"
        "    def _inner(): pass\n"
    )
    assert private_definitions(source) == {"_used", "_orphan", "_Box", "_peek"}
    assert private_definitions(source) - referenced_names(source) == {
        "_orphan",
        "_Box",
    }


def test_every_private_definition_is_referenced():
    defined = set().union(*(private_definitions(p.read_text()) for p in LIBRARY))
    used = set().union(*(referenced_names(p.read_text()) for p in SOURCES))
    assert defined
    assert sorted(defined - used) == []
