"""ionlink benchmark: three closed-loop workloads, checked outputs, metrics.

    python3 perfbench/run.py --workload {cli_cold,campaign,state_sweep} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the code under test is the checkout's own
``src/``.  Each workload is one client issuing one operation at a time in a
single process (CLI children run one at a time), with BLAS held at one
thread and everything pinned to one CPU; times are normalized for the host's
speed (README, "Host speed").  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones; the last stdout line is the JSON result.  See README.md in
this directory for the workloads and what each metric should move.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
SETUP_PROBES = 3
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 120
# Speed normalization (README, "Host speed"): a time t measured right after
# a calibration that took c seconds is reported as t * REF / c, in seconds of
# the reference 2-vCPU host when it is quiet, where the calibration takes REF.
# In-process ops calibrate with a kernel of small numpy calls (CAL_REF_S);
# fresh processes calibrate with a fresh process (REF_PROCESS_S).
CAL_REF_S = 0.0035
REF_PROCESS_S = 0.15
REF_PROCESS = "import numpy"
CAL_LOOPS = 150
_CAL_A = np.eye(2, dtype=complex)
_CAL_B = np.full((4, 4), 0.25, dtype=complex)
CLI_ENTRY = "import sys; from ionlink.cli import main; sys.exit(main())"

SUBCOMMANDS = ("budget", "modes", "ion-photon", "swap", "rate")
RATE_TRIALS = 2000
SCHEDULES = ("no_coolant", "coolant", "long_cap")
CAMPAIGN_REQUESTS = 2000
LONG_CAP = 80_000
MODULES = ("analysis", "cli", "config", "detection", "fitting", "ion_photon",
           "modes", "protocol", "quantum", "rate_model", "swap")

# span names reported as <name>.calls and <name>.self_s, per op
CALL_SPANS = (
    "protocol.simulate_campaign", "protocol.records_to_csv",
    "quantum.apply_unitary", "quantum.apply_channel", "quantum.partial_trace",
    "quantum.tensor", "quantum.lift",
    "swap.aligned_state_from_config", "swap.swapped_state",
    "analysis.parity_scan", "analysis.apply_analysis_pulse",
    "ion_photon.correlation_scan", "ion_photon.coherence_scan",
    "detection.simulate_histogram", "detection.choose_thresholds",
    "detection.classify_counts", "detection.spam_correct",
    "fitting.fit_sinusoid",
    "rate_model.request_rate", "rate_model.mean_success_prob", "rate_model.cdf",
    "modes.calibrate_reference_frequencies", "modes.normal_modes",
)


def _layer_spec() -> dict:
    """Per-layer metric name -> (unit, better)."""
    spec = {f"{m}.import_s": ("s", "lower") for m in tracer.IMPORT_MODULES}
    spec.update({f"cli.{s}.wall_s": ("s", "lower") for s in SUBCOMMANDS})
    spec["cli.main.self_s"] = ("s/op", "lower")
    spec["quantum.DensityMatrix.constructions"] = ("calls/op", "lower")
    spec["quantum.DensityMatrix.self_s"] = ("s/op", "lower")
    for name in CALL_SPANS:
        spec[f"{name}.calls"] = ("calls/op", "lower")
        spec[f"{name}.self_s"] = ("s/op", "lower")
    spec.update({f"protocol.{s}.us_per_request": ("us", "lower") for s in SCHEDULES})
    spec["protocol.success_fraction"] = ("ratio", "higher")
    spec["protocol.attempts_per_request"] = ("attempts", "lower")
    spec["trace.overhead_ratio"] = ("ratio", "lower")
    spec.update({f"{m}.src_lines": ("lines", "lower") for m in MODULES})
    spec["ionlink.src_lines"] = ("lines", "lower")
    return spec


END_TO_END = {
    "setup_s": ("s", "lower"),
    "latency_p50_s": ("s", "lower"),
    "latency_p90_s": ("s", "lower"),
    "throughput_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ratio": ("ratio", "higher"),
}
PER_LAYER = _layer_spec()

# ROADMAP baseline rows (hand-measured before this benchmark existed) and
# their traced counterpart: the import row, the per-request campaign cost, or
# the span whose mean inclusive time per call is shown.
BASELINE = (
    ("import ionlink.cli", "1.1-1.4 s", "import"),
    ("simulate_campaign per request", "41 us", "campaign"),
    ("swapped_state", "3.3 ms", "swap.swapped_state"),
    ("apply_analysis_pulse", "99 us", "analysis.apply_analysis_pulse"),
    ("parity_scan (25 pts)", "3.2 ms", "analysis.parity_scan"),
    ("request_rate per cap", "-", "rate_model.request_rate"),
    ("choose_thresholds", "-", "detection.choose_thresholds"),
    ("normal_modes", "-", "modes.normal_modes"),
)


class Op(NamedTuple):
    kind: str
    raw_s: float         # wall-clock latency
    speed: float         # reference over calibration time just before the op
    problems: list


def latencies(ops: list) -> list:
    """Speed-normalized latencies of the correct ops."""
    return [op.raw_s * op.speed for op in ops if not op.problems]


def kernel_speed() -> float:
    """Speed factor from a fixed kernel of small numpy calls."""
    t0 = perf_counter()
    for _ in range(CAL_LOOPS):
        k = np.kron(_CAL_A, _CAL_A) @ _CAL_B
        np.linalg.eigvalsh(k + k.conj().T)
    return CAL_REF_S / (perf_counter() - t0)


def process_speed() -> float:
    """Speed factor from a fresh interpreter that imports numpy and exits."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", REF_PROCESS], env=child_env(), cwd=ROOT,
                   check=True, timeout=CHILD_TIMEOUT_S)
    return REF_PROCESS_S / (perf_counter() - t0)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# --- workloads ----------------------------------------------------------------

class CliCold:
    """Fresh-process CLI runs at default arguments, round-robin."""

    round_len = len(SUBCOMMANDS)
    items_per_op = 1
    peak_rss_who = resource.RUSAGE_CHILDREN
    speed = staticmethod(process_speed)

    def __init__(self, seed: int, tmp: Path):
        self.cli_seed = int(np.random.default_rng(seed).integers(1, 2**31))
        self.tmp = tmp
        self.digests: dict = {}
        self.traced = False
        self.traced_runs: list = []   # (subcommand, child result)

    def prepare(self) -> None:
        from ionlink.config import HardwareConfig, coolant_config
        self.configs = {"no_coolant": HardwareConfig(), "coolant": coolant_config()}

    def argv(self, sub: str, out: Path) -> list[str]:
        extra = ["--records", "--trials", str(RATE_TRIALS)] if sub == "rate" else []
        return [sub, "--seed", str(self.cli_seed), "--out", str(out)] + extra

    def probe(self) -> None:
        import ionlink.cli
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = ionlink.cli.main(self.argv("budget", self.tmp / "probe"))
        if code != 0:
            raise RuntimeError(f"warm-up budget run exited {code}")

    def warm_up(self) -> None:
        self.run_op(0)

    def start_trace(self) -> None:
        self.traced = True

    def run_op(self, k: int):
        sub = SUBCOMMANDS[k % len(SUBCOMMANDS)]
        out = self.tmp / f"{sub}-{k}"
        argv = self.argv(sub, out)
        spans = self.tmp / f"spans-{k}.json"
        if self.traced:
            cmd = [sys.executable, "-X", "importtime", str(HERE / "cli_child.py"),
                   str(spans), "--"] + argv
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY] + argv
        t0 = perf_counter()
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, text=True,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S)
        dt = perf_counter() - t0
        if proc.returncode != 0:
            problems = [f"{sub}: exit {proc.returncode}: {proc.stderr[-300:]!r}"]
        else:
            problems = checks.cli_problems(sub, out, self.cli_seed,
                                           RATE_TRIALS, self.configs)
            digest = checks.tree_digest(out)
            if self.digests.setdefault(sub, digest) != digest:
                problems.append(f"{sub}: output differs from the first run "
                                "with the same seed")
        if self.traced and proc.returncode == 0:
            result = json.loads(spans.read_text())
            result["imports"] = tracer.import_times(proc.stderr)
            self.traced_runs.append((sub, result))
        shutil.rmtree(out, ignore_errors=True)
        spans.unlink(missing_ok=True)
        return sub, dt, problems

    def finish(self) -> list:
        return []

    def trace_results(self):
        stats: dict = {}
        campaigns, imports, walls = [], [], {}
        for sub, result in self.traced_runs:
            for name, (calls, total, own) in result["stats"].items():
                row = stats.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += own
            campaigns += result["campaigns"]
            imports.append(result["imports"])
            walls.setdefault(sub, []).append(result["stats"]["cli.main"][1])
        return stats, campaigns, imports, walls


class InProcess:
    """A workload whose ops call the library inside the benchmark process."""

    peak_rss_who = resource.RUSAGE_SELF
    speed = staticmethod(kernel_speed)

    def __init__(self, seed: int, tmp: Path):
        self.rng = np.random.default_rng(seed)
        self.tracer = None

    def probe(self) -> None:
        self.prepare()
        self.warm_up()

    def start_trace(self) -> None:
        self.tracer = tracer.Tracer()
        self.tracer.install()

    def finish(self) -> list:
        return []

    def trace_results(self):
        """Span statistics, plus import rows from fresh ``-X importtime`` runs."""
        imports = []
        for _ in range(IMPORT_PROBES):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                                   "import ionlink.cli"], env=child_env(), cwd=ROOT,
                                  text=True, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"import probe failed: {proc.stderr[-300:]}")
            imports.append(tracer.import_times(proc.stderr))
        return self.tracer.stats(), self.tracer.campaigns(), imports, {}


class Campaign(InProcess):
    """Warm simulate_campaign calls of one size, cycling three schedules."""

    round_len = len(SCHEDULES)
    items_per_op = CAMPAIGN_REQUESTS

    def __init__(self, seed: int, tmp: Path):
        super().__init__(seed, tmp)
        self.pooled = {s: [0, 0, 0] for s in SCHEDULES}  # requests, successes, wall ns

    def prepare(self) -> None:
        from ionlink import protocol
        from ionlink.config import (DECAY_COOLANT_RECONSTRUCTION, HardwareConfig,
                                    coolant_config)
        a, b, c = DECAY_COOLANT_RECONSTRUCTION
        self.protocol = protocol
        self.configs = {
            "no_coolant": HardwareConfig(),
            "coolant": coolant_config(),
            "long_cap": replace(HardwareConfig(), decay_a=a, decay_b=b, decay_c=c,
                                loop_cap_no_coolant=LONG_CAP),
        }

    def warm_up(self) -> None:
        self.protocol.simulate_campaign(self.configs[SCHEDULES[0]],
                                        CAMPAIGN_REQUESTS, 0)

    def run_op(self, k: int):
        schedule = SCHEDULES[k % len(SCHEDULES)]
        cfg = self.configs[schedule]
        seed = int(self.rng.integers(2**63))
        if self.tracer:
            self.tracer.op = k
        t0 = perf_counter()
        rep = self.protocol.simulate_campaign(cfg, CAMPAIGN_REQUESTS, seed)
        dt = perf_counter() - t0
        problems = []
        if (rep.requests != CAMPAIGN_REQUESTS
                or rep.successes != int(rep.success_mask.sum())
                or rep.total_wall_ns != rep.attempt_wall_ns + rep.cooling_wall_ns):
            problems.append(f"{schedule}: inconsistent report {rep.summary()}")
        problems += checks.rate_problems(schedule, cfg, rep.requests,
                                         rep.successes, rep.rate_hz)
        pool = self.pooled[schedule]
        pool[0] += rep.requests
        pool[1] += rep.successes
        pool[2] += rep.total_wall_ns
        return schedule, dt, problems

    def finish(self) -> list:
        """The same closed-form check on all requests of each schedule."""
        problems = []
        for schedule, (requests, successes, wall_ns) in self.pooled.items():
            if requests:
                problems += checks.rate_problems(
                    f"pooled {schedule}", self.configs[schedule], requests,
                    successes, successes / (wall_ns * 1e-9))
        return problems


class StateSweep(InProcess):
    """One seed-drawn config point per op through the density-matrix layers."""

    round_len = 1
    items_per_op = 1
    PARITY_POINTS = 25
    PULSE_POINTS = 13
    RATE_CAPS = ((10, False), (50, False), (200, False), (2000, True),
                 (20000, True))

    def prepare(self) -> None:
        from ionlink import analysis, ion_photon, rate_model, swap
        from ionlink.config import DECAY_COOLANT_RECONSTRUCTION, HardwareConfig
        self.analysis, self.ion_photon, self.swap = analysis, ion_photon, swap
        self.rate_model = rate_model
        self.base = HardwareConfig()
        self.parity_phases = np.linspace(0.0, np.pi, self.PARITY_POINTS)
        self.pulse_phases = np.linspace(0.0, np.pi, self.PULSE_POINTS)
        self.hwp = np.linspace(0.0, np.pi / 2.0, 37)
        self.coherence_phases = np.linspace(0.0, 2.0 * np.pi, 41)
        self.schedule = rate_model.ScheduleParams(
            attempt_duration=self.base.attempt_duration,
            cooling_duration=self.base.cooling_duration)
        self.decay = {
            False: rate_model.DecayParams(self.base.decay_a, self.base.decay_b,
                                          self.base.decay_c),
            True: rate_model.DecayParams(*DECAY_COOLANT_RECONSTRUCTION),
        }

    def warm_up(self) -> None:
        self.point(self.draw())

    def draw(self):
        u, two_pi = self.rng.uniform, 2.0 * np.pi
        return replace(self.base,
                       pol_mixing_a=u(0.0, 0.05), pol_mixing_b=u(0.0, 0.05),
                       t2_star_bell=u(5e-3, 80e-3), temporal_overlap=u(0.95, 1.0),
                       delta_hz=u(200.0, 2000.0), phi_a=u(0.0, two_pi),
                       phi_b=u(0.0, two_pi))

    def point(self, cfg) -> dict:
        analysis, ion_photon = self.analysis, self.ion_photon
        states, bounds, numbers = [], [], []
        for sign in (+1, -1):
            rho = self.swap.aligned_state_from_config(cfg, sign)
            two = analysis.parity_scan(rho, self.parity_phases, pulses="two")
            one = analysis.parity_scan(rho, self.parity_phases, pulses="one")
            odd = float(np.real(rho.matrix[1, 1] + rho.matrix[2, 2]))
            bounds.append(analysis.fidelity_lower_bound(analysis.FidelityBoundInputs(
                odd_populations=odd, two_pulse_contrast=min(1.0, two.contrast),
                one_pulse_contrast=min(1.0, one.contrast))))
            first = analysis.apply_analysis_pulse(rho, 0.0)
            states += [rho, first]
            for phi in self.pulse_phases:
                states.append(analysis.apply_analysis_pulse(first, phi))
                states.append(analysis.apply_analysis_pulse(rho, phi))
            numbers += [two.contrast, one.contrast]
        numbers.append(analysis.error_budget(cfg).total)
        for source in (cfg.source_a(), cfg.source_b()):
            pair = ion_photon.emit_ion_photon_state(source)
            corr = ion_photon.correlation_scan(pair, self.hwp)
            ion = ion_photon.heralded_ion_state(pair, +1)
            coh = ion_photon.coherence_scan(ion, self.coherence_phases)
            states += [pair, ion]
            numbers += [corr.contrast, coh.contrast]
        rates = [self.rate_model.request_rate(float(cap), self.decay[coolant],
                                              self.schedule, coolant)
                 for cap, coolant in self.RATE_CAPS]
        return {"states": states, "bounds": bounds, "numbers": numbers,
                "rates": rates}

    def run_op(self, k: int):
        cfg = self.draw()
        if self.tracer:
            self.tracer.op = k
        t0 = perf_counter()
        res = self.point(cfg)
        dt = perf_counter() - t0
        problems = []
        for i, rho in enumerate(res["states"]):
            problems += checks.density_problems(f"state {i}", rho.matrix, rho.dims)
        if not all(0.0 <= b <= 1.0 for b in res["bounds"]):
            problems.append(f"bounds {res['bounds']} outside [0, 1]")
        if not np.all(np.isfinite(res["numbers"])):
            problems.append(f"non-finite contrast or budget {res['numbers']}")
        if not all(np.isfinite(r) and r > 0.0 for r in res["rates"]):
            problems.append(f"rates {res['rates']}")
        return "point", dt, problems


WORKLOADS = {"cli_cold": CliCold, "campaign": Campaign, "state_sweep": StateSweep}


# --- measurement ---------------------------------------------------------------

def measure(workload, seconds: float, start: int, ops: list) -> int:
    """Run whole rounds of ops, each op right after a calibration, while the
    next round should end within ``seconds``; append an Op per op and return
    the next op index."""
    deadline = perf_counter() + seconds
    k = start
    while True:
        round_start = perf_counter()
        for _ in range(workload.round_len):
            speed = workload.speed()
            try:
                kind, dt, problems = workload.run_op(k)
            except Exception:  # a crashing op is a failed op; keep measuring
                kind, dt, problems = "error", float("nan"), [traceback.format_exc()]
            for p in problems[:3]:
                print(f"FAIL op {k}: {p}", file=sys.stderr)
            ops.append(Op(kind, dt, speed, problems))
            k += 1
        now = perf_counter()
        if now + (now - round_start) > deadline:
            return k


def setup_time(args) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter until its warm-up op is done,
    and the speed factor of a fresh process just before."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--probe"]
    speed = process_speed()
    t0 = perf_counter()
    with subprocess.Popen(cmd, env=child_env(), cwd=ROOT, text=True,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        dt = perf_counter() - t0
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}, said {line!r})")
    return dt, speed


def quantile(values: list, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(workload, ops: list, setups: list) -> dict:
    lat = latencies(ops) or [0.0]
    failed = sum(1 for op in ops if op.problems)
    busy = sum(lat)
    rss_kb = resource.getrusage(workload.peak_rss_who).ru_maxrss
    return {
        "setup_s": statistics.median(dt * speed for dt, speed in setups),
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": quantile(lat, 0.9),
        "throughput_per_s": len(lat) * workload.items_per_op / busy if busy else 0.0,
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_ratio": (len(ops) - failed) / len(ops),
    }


def overhead_ratio(plain: list, traced: list) -> float:
    """Sum over op kinds of the traced median over the untraced median."""
    def medians(ops):
        by_kind: dict = {}
        for op, dt in zip([op for op in ops if not op.problems], latencies(ops)):
            by_kind.setdefault(op.kind, []).append(dt)
        return {k: statistics.median(v) for k, v in by_kind.items()}
    a, b = medians(plain), medians(traced)
    kinds = a.keys() & b.keys()
    return sum(b[k] for k in kinds) / sum(a[k] for k in kinds) if kinds else 0.0


def src_lines() -> dict:
    out = {}
    total = 0
    for path in sorted((SRC / "ionlink").glob("*.py")):
        n = len(path.read_text().splitlines())
        total += n
        if path.stem in MODULES:
            out[f"{path.stem}.src_lines"] = n
    out["ionlink.src_lines"] = total
    return out


def layer_metrics(workload, plain: list, traced: list) -> tuple[dict, dict]:
    """Per-layer values; their times are normalized by the traced phase's
    median speed."""
    stats, campaigns, imports, walls = workload.trace_results()
    speed = statistics.median(op.speed for op in traced)
    stats = {name: [calls, total * speed, own * speed]
             for name, (calls, total, own) in stats.items()}
    imports = [{mod: t * speed for mod, t in row.items()} for row in imports]
    walls = {sub: [t * speed for t in ts] for sub, ts in walls.items()}
    campaigns = [(*c[:4], c[4] * speed) for c in campaigns]
    n_ops = len(traced)
    values = {name: 0.0 for name in PER_LAYER}
    for mod in tracer.IMPORT_MODULES:
        rows = [row[mod] for row in imports if mod in row]
        if rows:
            values[f"{mod}.import_s"] = statistics.median(rows)
    for sub, durations in walls.items():
        values[f"cli.{sub}.wall_s"] = statistics.median(durations)
    if "cli.main" in stats:
        values["cli.main.self_s"] = stats["cli.main"][2] / n_ops
    if "quantum.DensityMatrix" in stats:
        calls, _, own = stats["quantum.DensityMatrix"]
        values["quantum.DensityMatrix.constructions"] = calls / n_ops
        values["quantum.DensityMatrix.self_s"] = own / n_ops
    for name in CALL_SPANS:
        if name in stats:
            values[f"{name}.calls"] = stats[name][0] / n_ops
            values[f"{name}.self_s"] = stats[name][2] / n_ops
    for schedule in SCHEDULES:
        rows = [c for c in campaigns if c[0] == schedule]
        if rows:
            values[f"protocol.{schedule}.us_per_request"] = (
                1e6 * sum(c[4] for c in rows) / sum(c[1] for c in rows))
    if campaigns:
        requests = sum(c[1] for c in campaigns)
        attempts = sum(c[3] for c in campaigns)
        values["protocol.success_fraction"] = sum(c[2] for c in campaigns) / attempts
        values["protocol.attempts_per_request"] = attempts / requests
    values["trace.overhead_ratio"] = overhead_ratio(plain, traced)
    values.update(src_lines())
    return values, stats


def print_baseline(values: dict, stats: dict) -> None:
    print("ROADMAP baseline vs traced value (normalized; includes tracing overhead)")
    for label, baseline, span in BASELINE:
        if span == "import":
            traced = f"{values['cli.import_s']:.3f} s"
        elif span == "campaign":
            traced = ", ".join(f"{s} {values[f'protocol.{s}.us_per_request']:.2f} us"
                               for s in SCHEDULES
                               if values[f"protocol.{s}.us_per_request"])
        elif span in stats:
            calls, total, _ = stats[span]
            traced = f"{1e6 * total / calls:.1f} us per call ({calls} calls)"
        else:
            traced = ""
        print(f"  {label:<32} {baseline:>10}   {traced or 'not reached here'}")


# --- manifest and entry point --------------------------------------------------

def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def manifest(args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None
    h = hashlib.sha256()
    for path in sorted((SRC / "ionlink").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    uname = platform.uname()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": f"{uname.system} {uname.release} {uname.machine}",
        "nproc": os.cpu_count(), "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "git_commit": git_commit(), "src_sha256": h.hexdigest()[:16],
    }


def run(args, tmp: Path) -> dict:
    print("manifest " + json.dumps(manifest(args), sort_keys=True))
    workload = WORKLOADS[args.workload](args.seed, tmp)
    setups = [] if args.trace else [setup_time(args) for _ in range(SETUP_PROBES)]
    workload.prepare()
    workload.warm_up()
    plain, traced = [], []
    if args.trace:
        k = measure(workload, args.seconds / 2.0, 1, plain)
        workload.start_trace()
        measure(workload, args.seconds / 2.0, k, traced)
    else:
        measure(workload, args.seconds, 1, plain)
    ops = plain + traced
    problems = workload.finish()
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    failed = sum(1 for op in ops if op.problems)
    if args.trace:
        values, stats = layer_metrics(workload, plain, traced)
        print_baseline(values, stats)
        spec = PER_LAYER
    else:
        values = end_to_end(workload, ops, setups)
        spec = END_TO_END
    ok = [op for op in ops if not op.problems]
    for name, (unit, _) in spec.items():
        suffix = f"  (n={len(ok)})" if name.startswith("latency") else ""
        print(f"{name:<48} {values[name]:.6g} {unit}{suffix}")
    if ok:
        raw = [op.raw_s for op in ok]
        print(f"raw wall clock: latency p50 {statistics.median(raw):.6g} s, "
              f"p90 {quantile(raw, 0.9):.6g} s; median speed factor "
              f"{statistics.median(op.speed for op in ok):.4g}")
    if setups:
        print(f"raw setup: {statistics.median(dt for dt, _ in setups):.6g} s")
    print(f"fail_ratio {failed / len(ops):.6g} ({failed} of {len(ops)} ops)")
    return {"correct": failed == 0 and not problems, "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, (unit, _) in spec.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "ionlink" / "__init__.py").is_file():
        print(f"no ionlink sources at {SRC}: run from a checkout of the repo",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if not args.probe:
        # one CPU for the benchmark and its children, so that the calibration
        # runs where the measured work runs
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=TMP_ROOT))
    try:
        if args.probe:
            WORKLOADS[args.workload](args.seed, tmp).probe()
            print("ready", flush=True)
            return 0
        result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
