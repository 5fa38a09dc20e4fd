"""Every import in the package and test sources, and every module-level
private name in the package source, is used: standard-library ``ast`` scans,
since the project installs no linter.  And each CLI run loads only the
modules it runs: fresh-interpreter runs that list what they imported."""

import ast
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import ionlink

SRC = Path(ionlink.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


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


def test_test_modules_have_no_unused_imports():
    found = {path.name: unused for path in sorted(TESTS.glob("*.py"))
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


# A fresh interpreter imports ionlink.config alone (no argv), or runs
# cli.main(argv) from a working directory of its own, then prints its exit
# code and error category, the ionlink submodules it loaded, and which of
# numpy, scipy and yaml it loaded.
LOAD_SET = """
import contextlib, io, json, sys
import ionlink.config
code = error = None
if sys.argv[1:]:
    from ionlink.cli import main
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(sys.argv[1:])
        except SystemExit as exc:  # --version
            code = exc.code
    if err.getvalue():
        error = json.loads(err.getvalue())["error"]
print(json.dumps({"exit": code, "error": error,
                  "ionlink": sorted(m.split(".", 1)[1] for m in sys.modules
                                    if m.startswith("ionlink.")),
                  "third_party": sorted({"numpy", "scipy", "yaml"} & set(sys.modules))}))
"""

NUMPY_FREE = ["cli", "config"]
LOAD_SETS = [  # argv, exit code, error category, ionlink submodules, third party
    ([], None, None, ["config"], []),
    (["--version"], 0, None, NUMPY_FREE, []),
    (["budget", "--records"], 2, "usage", NUMPY_FREE, []),
    (["budget", "--config", "bad.yaml"], 2, "config_invalid", NUMPY_FREE, ["yaml"]),
    (["budget"], 0, None, ["budget", "cli", "config"], []),
    (["budget", "--config", "good.yaml"], 0, None, ["budget", "cli", "config"], ["yaml"]),
    (["modes"], 0, None, ["cli", "config", "modes"], ["numpy"]),
    (["rate", "--records", "--trials", "200"], 0, None,
     ["cli", "config", "protocol", "rate_model"], ["numpy"]),
    (["ion-photon"], 0, None,
     ["cli", "config", "fitting", "ion_photon", "quantum"], ["numpy"]),
    # analysis reaches budget through the error_budget alias it keeps
    (["swap", "--trials", "200"], 0, None,
     ["analysis", "budget", "cli", "config", "detection", "fitting",
      "ion_photon", "quantum", "swap"], ["numpy"]),
]


def test_each_cli_run_loads_exactly_its_modules(tmp_path):
    (tmp_path / "bad.yaml").write_text("eta_a: 2.0\n")
    (tmp_path / "good.yaml").write_text("t2_star_bell: 0.02\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))

    def loaded(argv):
        # the subcommands write files of different names into ./ionlink-out
        res = subprocess.run([sys.executable, "-c", LOAD_SET, *argv], cwd=tmp_path,
                             env=env, capture_output=True, text=True, check=True)
        return json.loads(res.stdout)

    with ThreadPoolExecutor(max_workers=2) as pool:
        found = list(pool.map(loaded, [case[0] for case in LOAD_SETS]))
    for (argv, code, error, modules, third_party), got in zip(LOAD_SETS, found):
        assert got == {"exit": code, "error": error, "ionlink": modules,
                       "third_party": third_party}, argv
