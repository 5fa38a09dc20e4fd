"""Every import in the package source is used: a standard-library ``ast``
scan, since the project installs no linter."""

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
