"""Paired parent/change benchmark runs, written to a BENCH_<PR>.json file.

    python3 tools/bench_pairs.py --parent REV --pr N \\
        [--workload campaign --workload cli_cold=3 ...] \\
        [--seconds 20] [--seed 9101] [--suite]

Run from the root of a checkout.  The change is this checkout as it stands,
uncommitted edits included; the parent is revision REV, extracted with
``git archive`` under ``.bench_build/`` and removed afterwards.  For each
workload ``NAME[=PAIRS]`` (PAIRS defaults to 10; no ``--workload`` means
every workload of BENCHMARK.json at 10 pairs), pair ``i`` runs ``python3 perfbench/run.py --workload W --seed SEED+i
--seconds S --trace 0`` once in each tree, one process at a time; the parent
runs first in even pairs and the change first in odd ones.  After the pairs
of a workload, ``TRACED_RUNS`` ``--trace 1`` runs per side at seed SEED,
alternating sides in the same way, give its per-layer rows (see
``layer_rows``).  Before the first run, ``compileall`` writes fresh bytecode for
``src/`` and ``perfbench/`` of both trees, so that neither side recompiles
modules on each cold start (the extracted parent has no
``__pycache__``, the checkout's may be stale, and ``PYTHONDONTWRITEBYTECODE``
keeps imports from writing it).

The file holds every pair's end-to-end metrics and speed factors (see
``speed_factor``), each side's median speed factor, each side's median and
quartiles, and per metric the number of pairs the change won (the direction
comes from BENCHMARK.json; ties count for neither side), how much worse the
change's median is than the parent's against the metric's BENCHMARK.json
bound, and whether a gain on it would hold (see ``summarize``).  It also holds the
first manifest of each side, its ``git_commit`` replaced by the revision
actually run (the parent's commit id; for the change, ``HEAD`` and whether
tracked files had uncommitted edits), per workload the per-layer rows of the
traced runs (see ``layer_rows``), the ``src/ionlink``
line counts of both trees and, with ``--suite``, the wall time and summary
line of each tree's test suite.

The ``data`` extraction filter is used where ``tarfile`` has it (Python
3.10.12, 3.11.4 and later); older interpreters extract the archive, which
comes from this repository, without a filter.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 1800
DEFAULT_PAIRS = 10
# traced runs per side and workload: one run's layer rows carry that run's
# whole noise (15-48% on unchanged layers), so each row is a median
TRACED_RUNS = 3
COMPILED = ("src", "perfbench")


def extract(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` to ``dest``; return the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return commit


def checkout_revision() -> str:
    """``HEAD`` of this checkout, marked when tracked files have
    uncommitted edits."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    head = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return f"{head} with uncommitted edits" if dirty else head


def src_lines(tree: Path) -> dict:
    """Lines per ``src/ionlink`` module, and their total."""
    out = {p.stem: len(p.read_text().splitlines())
           for p in sorted((tree / "src" / "ionlink").glob("*.py"))}
    out["total"] = sum(out.values())
    return out


def speed_factor(stdout: str) -> float | None:
    """The ``median speed factor`` that perfbench prints after its metrics,
    or None when it printed none (no op succeeded).

    perfbench scales each time by this factor, the reference host's
    calibration time over this host's just before the op; its medians show
    how far the host drifted between runs and between sessions."""
    marker = "median speed factor "
    for line in stdout.splitlines():
        if marker in line:
            return float(line.split(marker, 1)[1].split()[0])
    return None


def run_bench(tree: Path, workload: str, seed: int, seconds: int,
              trace: int = 0) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its manifest, its JSON
    result and its speed factor."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited "
                           f"{proc.returncode}: {proc.stderr[-500:]}")
    manifest = next(json.loads(line[len("manifest "):]) for line in lines
                    if line.startswith("manifest "))
    return {"manifest": manifest, "result": json.loads(lines[-1]),
            "speed_factor": speed_factor(proc.stdout)}


def median_or_none(values: list) -> float | None:
    """Median of the values that are not None, or None if there are none."""
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else None


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(pairs: list, metrics: dict) -> dict:
    """Per metric over ``pairs``: medians, quartiles, change wins and the two
    rules a change is judged by.

    ``metrics`` maps each name to its BENCHMARK.json entry (``better`` and
    ``bound``).  ``worse_by`` is the change's median minus the parent's, as a
    fraction of the parent's, signed so that positive means worse;
    ``within_bound`` is ``worse_by <= bound``.  ``gain_holds`` needs the
    change to win at least 9 of 10 pairs and its median to be better by more
    than the parent's interquartile spread.
    """
    out = {}
    for name, spec in metrics.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = -1.0 if spec["better"] == "higher" else 1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        parent_quartiles = quartiles(parent)
        worsening = sign * (change_median - parent_median)
        if parent_median:
            worse_by = worsening / abs(parent_median)
        else:  # no scale to compare with: any worsening is out of bounds
            worse_by = 0.0 if worsening <= 0 else None
        out[name] = {"parent_median": parent_median,
                     "parent_quartiles": parent_quartiles,
                     "change_median": change_median,
                     "change_quartiles": quartiles(change),
                     "change_wins": wins, "pairs": len(pairs),
                     "worse_by": worse_by, "bound": spec["bound"],
                     "within_bound": worse_by is not None and worse_by <= spec["bound"],
                     "gain_holds": (10 * wins >= 9 * len(pairs) and -worsening
                                    > parent_quartiles[1] - parent_quartiles[0])}
    return out


def layer_rows(parent: list, change: list, metrics: dict) -> dict:
    """Per-layer rows of the traced runs of each side.

    ``parent`` and ``change`` hold the ``metrics`` of each side's traced
    runs (name to ``{"value", "unit"}``) in run order, so that run ``i`` of
    both sides forms a pair run back to back; ``metrics`` maps each
    per-layer name of BENCHMARK.json to its entry.  ``parent`` and
    ``change`` in a row are each side's median value, kept as printed: a
    span that a workload does not reach reads 0.  ``ratio`` is the median of
    the pairs' change/parent ratios, so that a host slowdown that hits both
    runs of a pair cancels, or None where the parent reads 0 in every pair.
    """
    rows = {}
    for name, spec in metrics.items():
        p = [run[name]["value"] for run in parent]
        c = [run[name]["value"] for run in change]
        rows[name] = {"unit": parent[0][name]["unit"], "better": spec["better"],
                      "parent": statistics.median(p), "change": statistics.median(c),
                      "ratio": median_or_none([ci / pi if pi else None
                                               for pi, ci in zip(p, c)])}
    return rows


def run_suite(tree: Path) -> dict:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p",
                           "no:cacheprovider"], cwd=tree, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S,
                          env={**os.environ, "PYTHONPATH": str(tree / "src")})
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": perf_counter() - t0, "exit": proc.returncode,
            "summary": lines[-1] if lines else ""}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--pr", type=int, required=True,
                        help="number in the output name BENCH_<PR>.json")
    parser.add_argument("--workload", action="append", default=[],
                        metavar="NAME[=PAIRS]",
                        help=f"PAIRS defaults to {DEFAULT_PAIRS}")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=9101,
                        help="seed of the first pair; pair i uses SEED + i")
    parser.add_argument("--suite", action="store_true",
                        help="also time each tree's test suite")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    known = [w["name"] for w in bench["workloads"]]
    plan = {}
    for spec in args.workload or known:
        name, _, count = spec.partition("=")
        if name not in known:
            parser.error(f"unknown workload {name!r}; BENCHMARK.json has {known}")
        plan[name] = int(count) if count else DEFAULT_PAIRS
    if min(plan.values()) < 1:
        parser.error("each workload needs at least one pair")

    parent_tree = BUILD / f"parent-{args.pr}"
    shutil.rmtree(parent_tree, ignore_errors=True)
    try:
        commit = extract(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", *COMPILED],
                           cwd=tree, check=True, capture_output=True)
        report = {
            "pr": args.pr,
            "command": "python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {args.seconds} --trace 0",
            "trace_command": "python3 perfbench/run.py --workload W --seed "
                             f"{args.seed} --seconds {args.seconds} --trace 1",
            "bytecode": f"python -m compileall {' '.join(COMPILED)} in both "
                        "trees before the first run",
            "parent": {"revision": commit, "src_lines": src_lines(parent_tree)},
            "change": {"revision": checkout_revision(),
                       "src_lines": src_lines(ROOT)},
            "workloads": {},
        }
        for workload, count in plan.items():
            pairs = []
            for i in range(count):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                row = {"seed": seed, "first": order[0]}
                for side in order:
                    res = run_bench(trees[side], workload, seed, args.seconds)
                    res["manifest"]["git_commit"] = report[side]["revision"]
                    report[side].setdefault("manifest", res["manifest"])
                    row[side] = {k: v["value"]
                                 for k, v in res["result"]["metrics"].items()}
                    row[f"{side}_failed"] = res["result"]["failed"]
                    row[f"{side}_speed_factor"] = res["speed_factor"]
                print(f"{workload} pair {i + 1}/{count} (seed {seed}): " + ", ".join(
                    f"{k} {row['parent'][k]:.4g} -> {row['change'][k]:.4g}"
                    for k in metrics), flush=True)
                pairs.append(row)
            traced = {"parent": [], "change": []}
            for i in range(TRACED_RUNS):
                for side in (("parent", "change") if i % 2 == 0
                             else ("change", "parent")):
                    traced[side].append(run_bench(trees[side], workload, args.seed,
                                                  args.seconds, trace=1)["result"])
            report["workloads"][workload] = {
                "pairs": pairs, "summary": summarize(pairs, metrics),
                "speed_factor_median": {side: median_or_none(
                    [p[f"{side}_speed_factor"] for p in pairs]) for side in trees},
                "trace": {"seed": args.seed, "runs": TRACED_RUNS,
                          "failed": {side: [r["failed"] for r in runs]
                                     for side, runs in traced.items()},
                          "rows": layer_rows(
                              [r["metrics"] for r in traced["parent"]],
                              [r["metrics"] for r in traced["change"]], layers)}}
        if args.suite:
            for side, tree in trees.items():
                report[side]["suite"] = run_suite(tree)
    finally:
        shutil.rmtree(parent_tree, ignore_errors=True)
        with contextlib.suppress(OSError):
            BUILD.rmdir()  # only when nothing else is in it
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
