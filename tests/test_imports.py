"""Source hygiene: every module of the package and of the test suite uses
each name it imports, and imports it once."""
import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qrewrite"
# the package's `__init__` imports names to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def imported_names(source: str) -> list[str]:
    """Names the imports in `source` bind, in order of import (`from
    __future__` imports are directives, not names)."""
    imported: list[str] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    return imported


def unused_imports(source: str) -> list[str]:
    """Names an import binds that nothing else in `source` reads, in order
    of import."""
    used = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
    return [name for name in imported_names(source) if name not in used]


def repeated_imports(source: str) -> list[str]:
    """Names that more than one import binds, each named once."""
    return [name for name, n in Counter(imported_names(source)).items() if n > 1]


def test_the_guard_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom a import b, c\nc()\n"
    assert unused_imports(source) == ["os", "b"]


def test_the_guard_finds_a_repeated_import():
    source = "from a import b, c\nfrom a import c\nimport os\nimport os.path\nb(c, os)\n"
    assert repeated_imports(source) == ["c", "os"]


@pytest.mark.parametrize(
    "path",
    MODULES + TESTS,
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}",
)
def test_every_imported_name_is_used(path):
    source = path.read_text()
    assert unused_imports(source) == []
    assert repeated_imports(source) == []
