"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Shows that corrupted outputs count as failures (file by file, and through
the measurement loop into ``failed``), that every metric of BENCHMARK.json
prints with its unit on every workload, and that the benchmark refuses to
run without the sources.  Exits 0 when every check holds.
"""

import contextlib
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402

failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def corrupted_files(tmp: Path) -> None:
    import numpy as np
    import ionlink.cli
    out = tmp / "budget"
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        ionlink.cli.main(["budget", "--seed", "7", "--out", str(out)])
    expect(not checks.cli_problems("budget", out, 7, 0), "clean budget output passes")
    digest = checks.tree_digest(out)
    path = out / "error_budget.csv"
    path.write_text(path.read_text().replace("total,0.0357", "total,0.0457"))
    expect(bool(checks.cli_problems("budget", out, 7, 0)), "corrupted budget total fails")
    expect(checks.tree_digest(out) != digest, "corrupted file breaks byte identity")
    expect(bool(checks.cli_problems("budget", out, 8, 0)), "wrong seed in output fails")
    (out / "budget.json").unlink()
    expect(bool(checks.cli_problems("budget", out, 7, 0)), "missing output file fails")

    out = tmp / "modes"
    ionlink.cli.main(["modes", "--seed", "7", "--out", str(out)])
    expect(not checks.cli_problems("modes", out, 7, 0), "clean modes output passes")
    path = out / "modes_summary.json"
    doc = json.loads(path.read_text())
    doc["radial_frequencies_hz"][1] += 600.0
    path.write_text(json.dumps(doc))
    expect(bool(checks.cli_problems("modes", out, 7, 0)), "mode 0.6 kHz off fails")

    from ionlink import protocol
    from ionlink.config import HardwareConfig, coolant_config
    cfg, ccfg = HardwareConfig(), coolant_config()
    rep = protocol.simulate_campaign(cfg, 2000, 5)
    expect(not checks.rate_problems("", cfg, 2000, rep.successes, rep.rate_hz),
           "campaign rate_hz matches the closed form")
    expect(bool(checks.rate_problems("", cfg, 2000, rep.successes, 1.2 * rep.rate_hz)),
           "rate_hz 20% high fails")
    crep = protocol.simulate_campaign(ccfg, 2000, 5)
    expect(not checks.rate_problems("", ccfg, 2000, crep.successes, crep.rate_hz),
           "coolant success count matches the closed form")
    expect(bool(checks.rate_problems("", ccfg, 2000, crep.successes - 40, crep.rate_hz)),
           "coolant with 40 extra failed requests fails")

    expect(not checks.density_problems("", np.eye(4) / 4, (2, 2)), "valid state passes")
    for label, m in (("non-PSD", np.diag([0.6, 0.5, 0.0, -0.1])),
                     ("trace 1.1", np.eye(4) * 1.1 / 4),
                     ("non-Hermitian", np.eye(4) / 4 + np.triu(np.ones((4, 4)), 1) * 1e-6)):
        expect(bool(checks.density_problems("", m, (2, 2))), f"{label} state fails")


def corrupted_ops(tmp: Path) -> None:
    """A program returning wrong results makes ops fail in the measured loop."""
    w = run.Campaign(1, tmp)
    w.prepare()
    real = w.protocol.simulate_campaign

    def slow_clock(cfg, requests, seed):
        rep = real(cfg, requests, seed)
        extra = rep.total_wall_ns // 5
        return dataclasses.replace(rep, total_wall_ns=rep.total_wall_ns + extra,
                                   cooling_wall_ns=rep.cooling_wall_ns + extra)
    w.protocol = types.SimpleNamespace(simulate_campaign=slow_clock)
    ops = []
    run.measure(w, 0.0, 0, ops)
    expect(sum(1 for op in ops if op.problems) >= 2,
           "campaign ops with 20% extra wall time are counted as failed")

    s = run.StateSweep(1, tmp)
    s.prepare()
    s.analysis = types.SimpleNamespace(**{**vars(s.analysis),
                                          "fidelity_lower_bound": lambda inputs: 1.5})
    ops = []
    run.measure(s, 0.0, 0, ops)
    expect(all(op.problems for op in ops), "state_sweep op with bound 1.5 is counted as failed")


def metrics_print_with_units(tmp: Path) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        expect(want == {n: u for n, (u, _) in
                        (run.END_TO_END if trace == 0 else run.PER_LAYER).items()},
               f"BENCHMARK.json {key} matches run.py")
        for w in spec["workloads"]:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
                 "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{w['name']} trace {trace}: no JSON result "
                       f"(exit {proc.returncode}) {proc.stderr[-500:]}")
                continue
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            finite = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                         for m in result["metrics"].values())
            positive = trace == 1 or all(m["value"] > 0 for m in result["metrics"].values())
            printed = all(any(line.split()[:1] == [n] and u in line for line in lines)
                          for n, u in want.items())
            expect(proc.returncode == 0 and result["correct"] and got == want
                   and finite and positive and printed,
                   f"{w['name']} trace {trace}: every metric prints with its unit")


def refuses_without_sources(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "campaign", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without src/ the benchmark exits nonzero and prints no result")


def main() -> int:
    run.TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=run.TMP_ROOT))
    try:
        corrupted_files(tmp)
        corrupted_ops(tmp)
        refuses_without_sources(tmp)
        metrics_print_with_units(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.TMP_ROOT.rmdir()
    print(f"{len(failures)} self-check failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
