"""Every import in the package and test sources is used, and every
definition in the package source is reached from ``cli.main``:
standard-library ``ast`` scans, since the project installs no linter.  And
each CLI run loads only the modules it runs: fresh-interpreter runs that list
what they imported."""

import ast
import builtins
import importlib
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


def unreached_definitions(sources: dict[str, str], roots) -> list[str]:
    """Module-level functions, classes and constants, and methods and
    properties, of the package ``sources`` (module name to source, the
    package's own module as ``__init__``) that nothing reached from ``roots``
    (``"module.name"``, ``"module.Class.method"``) reads.

    A name read in load context resolves through its module's own bindings
    (``from .m import f``; ``m.f`` after ``from . import m``); any other
    attribute read reaches every method and property of that name.  A
    reached class brings its decorators, bases, fields with their defaults,
    dunders, and each method that overrides an attribute of a base from
    outside the package (``cli._Parser.error``, which argparse calls)."""
    nodes, methods, inside, outside = {}, {}, {}, {}
    for mod, source in sources.items():
        tree = ast.parse(source)
        inside[mod], outside[mod] = {}, {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                nodes[f"{mod}.{node.name}"] = (mod, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (n for t in targets for n in ast.walk(t)):
                    if isinstance(name, ast.Name):
                        nodes[f"{mod}.{name.id}"] = (mod, node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        key = f"{mod}.{node.name}.{item.name}"
                        nodes[key] = (mod, item)
                        methods.setdefault(item.name, []).append(key)
        for node in ast.walk(tree):  # function-local imports bind too
            if isinstance(node, ast.Import):
                for alias in node.names:
                    # import a.b binds a; import a.b as c binds a.b
                    module = alias.name if alias.asname else alias.name.split(".")[0]
                    outside[mod][alias.asname or module] = (module, None)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    local = alias.asname or alias.name
                    if not node.level:
                        outside[mod][local] = (node.module, alias.name)
                    elif node.module:
                        inside[mod][local] = (node.module, alias.name)
                    else:  # from . import m: a module, or a name of __init__
                        inside[mod][local] = ((alias.name, None) if alias.name in sources
                                              else ("__init__", alias.name))

    def resolve(mod, name):
        while f"{mod}.{name}" not in nodes:
            if inside.get(mod, {}).get(name, (None, None))[1] is None:
                return None
            mod, name = inside[mod][name]
        return f"{mod}.{name}"

    def external(mod, expr):
        """The object that a base-class expression from outside the package
        names, else None."""
        if isinstance(expr, ast.Attribute):
            base = external(mod, expr.value)
            return None if base is None else getattr(base, expr.attr, None)
        if not isinstance(expr, ast.Name) or resolve(mod, expr.id):
            return None
        if expr.id not in outside[mod]:
            return getattr(builtins, expr.id, None)
        module, attr = outside[mod][expr.id]
        try:
            found = importlib.import_module(module)
        except ImportError:
            return None
        return getattr(found, attr, None) if attr else found

    def dunder(name):
        return name.startswith("__") and name.endswith("__")

    reached, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key in reached or key not in nodes:
            continue
        reached.add(key)
        mod, node = nodes[key]
        parts = [node]
        if isinstance(node, ast.ClassDef):
            bases = [b for b in (external(mod, e) for e in node.bases) if b is not None]
            parts = [*node.decorator_list, *node.bases, *node.keywords]
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    parts.append(item)
                elif dunder(item.name) or any(hasattr(b, item.name) for b in bases):
                    todo.append(f"{key}.{item.name}")
        for sub in (s for part in parts for s in ast.walk(part)):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                todo.append(resolve(mod, sub.id))
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                base = sub.value.id if isinstance(sub.value, ast.Name) else None
                target, name = inside[mod].get(base, (None, ""))
                if name is None:  # m.f after from . import m
                    todo.append(resolve(target, sub.attr))
                elif base not in outside[mod]:
                    todo.extend(methods.get(sub.attr, ()))
    return sorted((key for key in nodes
                   if key not in reached and not dunder(key.rsplit(".", 1)[1])),
                  key=lambda key: (key.split(".")[0], nodes[key][1].lineno))


def test_scan_flags_what_no_root_reaches():
    sources = {
        "__init__": '__version__ = "1"\n',
        "cli": ("import argparse\nfrom . import __version__, m\nfrom .n import Thing\n"
                "_UNUSED, PUBLIC = 1, 2\n"
                "def _dead_helper():\n    return _UNUSED\n"
                "class _Parser(argparse.ArgumentParser):\n"
                "    def error(self, message):\n        raise SystemExit(message)\n"
                "    def exit_code(self):\n        return 2\n"
                "def main():\n    _Parser(prog=__version__)\n"
                "    return m.f() + Thing().run() + PUBLIC\n"),
        "m": ("LIMIT = 3\nUNREAD = 4\ndef f():\n    return LIMIT\n"
              "def unreached():\n    return _helper()\n"
              "def _helper():\n    'LIMIT'\n    return 1\n"),
        "n": ("from dataclasses import dataclass\nfrom .m import LIMIT\n"
              "SIZE = 2\n@dataclass(frozen=True)\nclass Thing:\n    size: int = SIZE\n"
              "    def __post_init__(self):\n        assert self.size <= LIMIT\n"
              "    def run(self):\n        return self.size\n"
              "    def stop(self):\n        return 0\n"),
    }
    assert unreached_definitions(sources, ["cli.main"]) == [
        "cli._UNUSED", "cli._dead_helper", "cli._Parser.exit_code",
        "m.UNREAD", "m.unreached", "m._helper", "n.Thing.stop"]
    assert unreached_definitions(sources, ["cli.main", "m.unreached"]) == [
        "cli._UNUSED", "cli._dead_helper", "cli._Parser.exit_code",
        "m.UNREAD", "n.Thing.stop"]


# Definitions that no CLI path reaches yet, each with what keeps it.  Each
# also serves as a root, so what it reads stays.
UNREACHED_BY_THE_CLI = {
    "analysis.apply_analysis_pulse": "perfbench state_sweep calls it (ROADMAP item 5)",
    "analysis.parity_scan": "perfbench state_sweep calls it (ROADMAP item 5)",
    "analysis.error_budget": "perfbench state_sweep calls it (ROADMAP item 5)",
    "rate_model.request_rate": "perfbench state_sweep calls it (ROADMAP item 5)",
    "config.DECAY_COOLANT_RECONSTRUCTION": "perfbench reads it (ROADMAP items 5, 9)",
    "quantum.fidelity_pure": "the overlap diagnostic will report it (ROADMAP items 1, 13)",
    "swap.bell_state": "the overlap diagnostic's target (ROADMAP items 1, 13)",
    "rate_model.optimal_cap": "rate will report the best cap (ROADMAP item 2)",
    "detection.ConfusionMatrix.condition_number":
        "readout_thresholds.json will report it (ROADMAP item 4)",
}


def test_package_defines_only_what_the_cli_reaches():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    # every entry exists and the CLI does not reach it yet
    unreached = unreached_definitions(sources, ["cli.main"])
    assert sorted(set(UNREACHED_BY_THE_CLI) - set(unreached)) == []
    assert unreached_definitions(sources, ["cli.main", *UNREACHED_BY_THE_CLI]) == []


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
