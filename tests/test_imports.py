"""Tooling: no module in src/ or tests/ imports a name it never uses, no
private helper in src/ is left without a caller, and no src/ module imports
another's private name.

The repository configures no linter, so these are AST scans. Every name an
import statement binds must be read somewhere in the module; a package's
__init__.py imports to re-export, so it is exempt. Every module-level private
name (`_x`) that src/ defines must be read somewhere in src/ outside its own
definition. A private name stays in its module: what it fixes, such as the
order of the pilot-noise draws in estimation.py, is then decided in one place.
"""

import ast
from collections import Counter
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


def _reads(node) -> Counter:
    """How often each name is read under `node`: loads, attributes and imports."""
    reads = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            reads[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            reads.update(alias.name for alias in sub.names)
    return reads


def _defined(node) -> list:
    """Names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def orphaned_private_names(sources: dict) -> list:
    """(module, name) of each module-level `_x` that no other code in `sources` reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return sorted((module, name) for module, tree in trees.items() for node in tree.body
                  for name in _defined(node)
                  if name.startswith("_") and not name.startswith("__")
                  and reads[name] == _reads(node)[name])


def test_orphan_scan_finds_an_unread_private_name():
    sources = {"a": "_used = 1\n_unused = 2\ndef _self(n):\n    return _self(n - 1)\n"
                    "class _Kept:\n    pass\n__all__ = []\n",
               "b": "from a import _Kept\nprint(_used)\n"}
    assert orphaned_private_names(sources) == [("a", "_self"), ("a", "_unused")]


def test_no_orphaned_private_names_in_src():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in (ROOT / "src").rglob("*.py")}
    assert orphaned_private_names(sources) == []


def private_imports(source: str) -> list:
    """(line, name) of each private (`_x`) name `source` imports from a chanpred module."""
    return sorted((node.lineno, alias.name) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.ImportFrom)
                  and (node.level > 0 or (node.module or "").split(".")[0] == "chanpred")
                  for alias in node.names
                  if alias.name.startswith("_") and not alias.name.startswith("__"))


def test_private_import_scan_finds_one():
    source = ("from __future__ import annotations\n"
              "from .estimation import _EST_CHUNK, draw_noise\n"
              "from chanpred.channel import _TRACE_MAGIC\nfrom . import _rng\n"
              "from numpy.lib import _private\n")
    assert private_imports(source) == [(2, "_EST_CHUNK"), (3, "_TRACE_MAGIC"), (4, "_rng")]


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_imports_in_src(path):
    assert private_imports(path.read_text()) == []
