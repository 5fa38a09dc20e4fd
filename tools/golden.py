"""Regenerate the golden CLI outputs under ``tests/golden/``.

Each run of ``RUNS`` at each seed of ``SEEDS`` goes through
``ionlink.cli.main`` in process and gets one directory,
``tests/golden/<label>-seed<seed>/``.  It holds every output file without
its version header line (``# ionlink=...`` or the ``"ionlink"`` JSON key),
so that a version bump moves no golden file; each ``herald_records_*.csv``
as ``<name>.sha256``, the digest of that text; and ``stdout.txt`` when the
run prints.  ``tests/test_golden.py`` compares fresh runs against them.

A change that moves an output on purpose reruns this script and lists every
moved value in CHANGES.md:

    python tools/golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

SEEDS = (5, 99)
# config file name: text; "{name}" in an argv stands for that file's path
CONFIGS = {
    "coolant": "coolant_present: true\n",
    # class means 2, 8 and 14 counts: the readout classes overlap
    "overlap": "bright_rate: 6000.0\ndark_rate: 2000.0\n",
}
# label: argv
RUNS = {
    "budget": ["budget"],
    "modes": ["modes"],
    "modes-single-ion": ["modes", "--single-ion"],
    "ion-photon": ["ion-photon"],
    "ion-photon-grid": ["ion-photon", "--grid", "0:1:7"],
    "swap": ["swap"],
    "swap-predicted": ["swap", "--profile", "predicted"],
    "swap-overlap": ["swap", "--config", "{overlap}"],
    "rate-records": ["rate", "--records", "--trials", "2000"],
    "rate-grid": ["rate", "--grid", "1:300:5", "--trials", "500"],
    "rate-coolant": ["rate", "--config", "{coolant}", "--trials", "2000"],
}
HASHED_PREFIX = "herald_records_"
STDOUT = "stdout.txt"


def run_dir(label: str, seed: int) -> Path:
    return GOLDEN / f"{label}-seed{seed}"


def _unversioned(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith(("# ionlink=", '  "ionlink": ')))


def run_outputs(argv: list[str], seed: int, tmp: Path) -> dict[str, str]:
    """File name to text of each output of one CLI run in the empty
    directory ``tmp``, stored as this module's docstring says."""
    from ionlink.cli import main
    paths = {name: tmp / f"{name}.yaml" for name in CONFIGS}
    for name, path in paths.items():
        path.write_text(CONFIGS[name])
    out = tmp / "out"
    argv = [arg.format(**paths) for arg in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv + ["--seed", str(seed), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"ionlink {' '.join(argv)} exited with {code}")
    files = {}
    for path in sorted(out.iterdir()):
        text = _unversioned(path.read_text())
        if path.name.startswith(HASHED_PREFIX):
            files[path.name + ".sha256"] = hashlib.sha256(text.encode()).hexdigest() + "\n"
        else:
            files[path.name] = text
    if stdout.getvalue():
        files[STDOUT] = stdout.getvalue()
    return files


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for label, argv in RUNS.items():
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as tmp:
                files = run_outputs(argv, seed, Path(tmp))
            target = run_dir(label, seed)
            target.mkdir(parents=True)
            for name, text in files.items():
                (target / name).write_text(text)
    print(f"wrote {len(RUNS) * len(SEEDS)} runs to {GOLDEN.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
