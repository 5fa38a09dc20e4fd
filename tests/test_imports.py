"""Every import and every module-level private name in the package source
is used: standard-library ``ast`` scans, since the project installs no
linter."""

import ast
from pathlib import Path

import ionlink

SRC = Path(ionlink.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads
    (``__future__`` imports bind none)."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read]


def test_scan_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\n"
              "from dataclasses import dataclass, replace\n"
              "from .fitting import wrap_phase\n"
              "x = np.pi + os.sep\n@dataclass\nclass A:\n    pass\n")
    assert unused_imports(source) == ["line 4: replace", "line 5: wrap_phase"]


def test_package_has_no_unused_imports():
    found = {path.name: unused for path in sorted(SRC.glob("*.py"))
             if (unused := unused_imports(path.read_text()))}
    assert found == {}


def unused_private_names(source: str) -> list[str]:
    """Module-level ``_private`` functions, classes and constants of
    ``source`` that no expression in it reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(defined.items(), key=lambda kv: kv[1])
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_scan_flags_an_unread_private_name():
    source = ("_LIMIT = 5\n_UNUSED, PUBLIC = 1, 2\n__all__ = []\n"
              "def _helper():\n    return _LIMIT\n"
              "def _coulomb_curvatures(z):\n    '_UNUSED'\n    return z\n"
              "class _Hidden:\n    pass\n"
              "def public():\n    return _helper()\n")
    assert unused_private_names(source) == [
        "line 2: _UNUSED", "line 6: _coulomb_curvatures", "line 9: _Hidden"]


def test_package_has_no_unread_private_names():
    found = {path.name: unused for path in sorted(SRC.glob("*.py"))
             if (unused := unused_private_names(path.read_text()))}
    assert found == {}
