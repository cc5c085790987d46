"""Tooling: no module in src/ or tests/ imports a name it never uses.

The repository configures no linter, so this is an AST scan: every name an
import statement binds must be read somewhere in the module. A package's
__init__.py imports to re-export, so it is exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that `source` never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name quoted in an annotation is read when the annotation is evaluated
    read |= {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.isidentifier()}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_scan_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d as e\nx = np.e + e\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


def test_scan_reads_names_in_annotations_and_attributes():
    source = ("from __future__ import annotations\nimport a.b\nfrom t import T, U\n"
              "def f(x: T) -> 'U':\n    return a.b.c(x)\n")
    assert unused_imports(source) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
