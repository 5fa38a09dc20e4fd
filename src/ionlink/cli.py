"""Command-line front end: experiment subcommands with CSV/JSON emission.

Every output file is written by ``_csv`` or ``_json_payload``, which embed the
package version, config hash and master seed as '#'-prefixed header lines (CSV)
or top-level keys (JSON); the library returns data only.  A rerun with the same
config and seed is byte-identical.  Exit code 0 means every requested output
was written; config and usage problems exit with code 2, runtime failures with
code 1, both after printing a machine-parsable JSON error object to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

# Each cmd_* imports the library modules it runs, so that a fresh process
# loads only those.
from . import __version__
from .config import HardwareConfig, ideal_config, load_config, measured_swap_config

SEED_ENV_VAR = "IONLINK_SEED"
DEFAULT_SEED = 1
MAX_GRID_POINTS = 100_000
# Grid ends lie within +-MAX_GRID_END, so that stop - start and k * x stay
# finite for each fitted frequency k <= 4.
MAX_GRID_END = 1e300
# Memory grows with --trials for rate only: a campaign holds about 48 bytes
# per request.  Swap draws its readout in batches, so its RSS stays about
# 38 MB at any trial count.
MAX_TRIALS = 10_000_000
# rate --records writes at most this many requests per schedule
MAX_RECORDS = 100_000
RECORD_COLUMNS = ("request_index", "attempts_used", "wall_time_ns", "success",
                  "sign", "loop_index")


class CliError(Exception):
    def __init__(self, category: str, message: str, exit_code: int = 1):
        super().__init__(message)
        self.category = category
        self.exit_code = exit_code


def _parse_grid(spec: str) -> np.ndarray:
    """Parse 'start:stop:num' into a linspace grid of 3 to MAX_GRID_POINTS."""
    try:
        start, stop, num = spec.split(":")
        start, stop, num = float(start), float(stop), int(num)
    except ValueError as exc:
        raise CliError("bad_grid", f"cannot parse grid spec {spec!r}: {exc}", 2)
    if not (abs(start) <= MAX_GRID_END and abs(stop) <= MAX_GRID_END):
        raise CliError("bad_grid", f"grid ends must be finite and within "
                       f"+-{MAX_GRID_END:g}, got {spec!r}", 2)
    if not 3 <= num <= MAX_GRID_POINTS:
        raise CliError("bad_grid", f"grid needs 3 to {MAX_GRID_POINTS} points, "
                       f"got {num}", 2)
    return np.linspace(start, stop, num)


def _resolve_config(args) -> HardwareConfig:
    try:
        cfg = HardwareConfig() if args.config is None else load_config(args.config)
        # --ideal resets every field the calibration sets, so it skips the
        # calibration, which raises for a config that cannot reach its targets
        if getattr(args, "profile", None) == "measured" and not args.ideal:
            cfg = measured_swap_config(cfg)
    except FileNotFoundError:
        raise CliError("config_missing", f"config file not found: {args.config}", 2)
    except ValueError as exc:
        raise CliError("config_invalid", str(exc), 2)
    return ideal_config(cfg) if args.ideal else cfg


def _resolve_seed(args) -> int:
    seed, source = args.seed, "--seed"
    if seed is None:
        env, source = os.environ.get(SEED_ENV_VAR), SEED_ENV_VAR
        if env is None:
            return DEFAULT_SEED
        try:
            seed = int(env)
        except ValueError:
            raise CliError("bad_seed", f"{SEED_ENV_VAR}={env!r} is not an integer", 2)
    if seed < 0:
        raise CliError("bad_seed", f"{source} must be non-negative, got {seed}", 2)
    return seed


def _run_header(cfg: HardwareConfig, seed: int) -> dict:
    return {"ionlink": __version__, "config_hash": cfg.config_hash(), "seed": seed}


def _write(out_dir: Path, name: str, content: str) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text(content)
    except OSError as exc:  # e.g. --out names an existing file
        raise CliError("bad_out", f"cannot write {out_dir / name}: {exc}", 2) from None


def _json_payload(cfg: HardwareConfig, seed: int, body: dict) -> str:
    return json.dumps(_run_header(cfg, seed) | body, sort_keys=True, indent=2)


def _csv(cfg: HardwareConfig, seed: int, columns, rows) -> str:
    """The run header as '# key=value' lines, the column row, then one line
    per row: a float cell as '%.12g', any other cell with str()."""
    lines = [f"# {k}={v}" for k, v in _run_header(cfg, seed).items()]
    lines.append(",".join(columns))
    lines.extend(",".join(["%.12g" % v if isinstance(v, float) else str(v)
                           for v in row]) for row in rows)
    return "\n".join(lines) + "\n"


def _scan_csv(cfg: HardwareConfig, seed: int, scan) -> str:
    """A ScanResult as one row per control value: the control, then each series."""
    return _csv(cfg, seed, ["control_value", *scan.series],
                zip(scan.control.tolist(), *(v.tolist() for v in scan.series.values())))


def _record_rows(report, limit: int):
    """Rows of the first ``limit`` requests of a campaign; a failed request
    has an empty sign cell."""
    n = min(limit, report.requests)
    cols = zip(report.attempts_used[:n].tolist(), report.wall_ns[:n].tolist(),
               report.success_mask[:n].tolist(), report.signs[:n].tolist(),
               report.loop_index[:n].tolist())
    return ((k, a, w, int(s), g if s else "", i)
            for k, (a, w, s, g, i) in enumerate(cols))


# --- ion-photon --------------------------------------------------------------

def cmd_ion_photon(args, cfg: HardwareConfig, seed: int, out: Path) -> int:
    from .ion_photon import (
        coherence_scan,
        correlated_populations,
        correlation_scan,
        emit_ion_photon_state,
        fidelity_lower_bound_pair,
        fidelity_upper_bound,
        heralded_ion_state,
    )
    hwp = _parse_grid(args.grid) if args.grid else np.linspace(0.0, np.pi / 2.0, 37)
    phases = np.linspace(0.0, 2.0 * np.pi, 41)
    summary = {}
    for label, source in (("A", cfg.source_a()), ("B", cfg.source_b())):
        pair = emit_ion_photon_state(source)
        corr = correlation_scan(pair, hwp)
        ion = heralded_ion_state(pair, +1)
        coh = coherence_scan(ion, phases)
        _write(out, f"correlation_{label}.csv", _scan_csv(cfg, seed, corr))
        _write(out, f"coherence_{label}.csv", _scan_csv(cfg, seed, coh))
        pops = correlated_populations(pair)
        summary[label] = {
            "correlation": corr.fit_summary(),
            "coherence": coh.fit_summary(),
            "correlated_populations": pops,
            "fidelity_upper_bound": fidelity_upper_bound(corr.contrast),
            "fidelity_lower_bound": fidelity_lower_bound_pair(pops, coh.contrast),
        }
    _write(out, "ion_photon_fits.json", _json_payload(cfg, seed, summary))
    return 0


# --- swap --------------------------------------------------------------------

def cmd_swap(args, cfg: HardwareConfig, seed: int, out: Path) -> int:
    from . import analysis, swap
    if not analysis.MIN_SWAP_TRIALS <= args.trials <= MAX_TRIALS:
        raise CliError("bad_trials", f"swap needs {analysis.MIN_SWAP_TRIALS} to "
                       f"{MAX_TRIALS} trials, got {args.trials}", 2)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    res = analysis.swap_experiment(cfg, args.trials, rng)

    # each histogram as frequencies, zero-padded to the widest
    width = max(h.size for h in res.histograms)
    freqs = np.stack([np.pad(h / h.sum(), (0, width - h.size))
                      for h in res.histograms], axis=1)
    _write(out, "readout_histograms.csv", _csv(
        cfg, seed, ("count", "freq_0bright", "freq_1bright", "freq_2bright"),
        ((c, *row) for c, row in enumerate(freqs.tolist()))))
    _write(out, "readout_thresholds.json",
           _json_payload(cfg, seed, asdict(res.thresholds)))
    for pulses, scan in res.scans.items():
        _write(out, f"parity_{pulses}_pulse.csv", _scan_csv(cfg, seed, scan))
    _write(out, "populations.csv", _csv(
        cfg, seed, ("bright_ions", "raw_frequency", "corrected_population"),
        zip(range(3), res.raw_populations.tolist(),
            res.populations.populations.tolist())))
    summary = {
        "trials": args.trials,
        "profile": args.profile,
        "odd_populations": res.odd_populations,
        "two_pulse_contrast": res.scans["two"].contrast,
        "one_pulse_contrast": res.scans["one"].contrast,
        "fidelity_lower_bound": res.bound,
        "bound_inputs": asdict(res.bound_inputs),
        "spam_clipped_mass": res.populations.clipped_mass,
        "herald_sign_counts": {"+1": res.sign_counts[+1],
                               "-1": res.sign_counts[-1]},
        "alignment_wait_s": {"+1": swap.alignment_wait(cfg, +1),
                             "-1": swap.alignment_wait(cfg, -1)},
    }
    _write(out, "swap_summary.json", _json_payload(cfg, seed, summary))
    return 0


# --- rate --------------------------------------------------------------------

def cmd_rate(args, cfg: HardwareConfig, seed: int, out: Path) -> int:
    from . import protocol, rate_model
    if not 1 <= args.trials <= MAX_TRIALS:
        raise CliError("bad_trials", f"rate needs 1 to {MAX_TRIALS} trials, "
                       f"got {args.trials}", 2)
    if args.grid:
        grid = _parse_grid(args.grid)
        if grid.max() > rate_model.MAX_LOOP_CAP:
            raise CliError("bad_grid", f"caps must not exceed "
                           f"{rate_model.MAX_LOOP_CAP}, got {grid.max():g}", 2)
        caps = np.unique(np.maximum(1.0, grid).astype(int))
    else:
        caps = np.array([1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000,
                         5000, 10000, 20000])
    mc = {}
    experiment = protocol.rate_experiment(cfg, caps, args.trials, seed)
    for name, (run_cfg, curve, report) in experiment.items():
        _write(out, f"rate_analytic_{name}.csv", _csv(
            cfg, seed, ("cap", "cdf", "mean_success_prob", "rate_hz",
                        "rate_no_cooling_hz"),
            zip(curve.caps.tolist(), curve.cdf.tolist(),
                curve.mean_success_prob.tolist(), curve.rate_hz.tolist(),
                curve.rate_no_cooling_hz.tolist())))
        mc[name] = report.summary()
        mc[name]["effective_attempt_rate_hz"] = protocol.effective_attempt_rate(run_cfg)
        if args.records:
            _write(out, f"herald_records_{name}.csv", _csv(
                cfg, seed, RECORD_COLUMNS, _record_rows(report, MAX_RECORDS)))
    _write(out, "rate_mc.json", _json_payload(cfg, seed, mc))
    return 0


# --- modes -------------------------------------------------------------------

def cmd_modes(args, cfg: HardwareConfig, seed: int, out: Path) -> int:
    from . import modes
    masses, axial, radial = modes.YB_BA_BA_MASSES, args.axial_ref, args.radial_ref
    if args.single_ion:
        masses = (modes.MASS_BA_138,)
        axial = 367e3 if axial is None else axial
        radial = 890e3 if radial is None else radial
    elif (axial is None) != (radial is None):
        raise CliError("bad_reference", "modes needs both --axial-ref and "
                       "--radial-ref, or neither (without --single-ion)", 2)
    if axial is None:
        spec = modes.calibrate_reference_frequencies()
    else:
        try:  # ChainSpec checks the range of the references
            spec = modes.ChainSpec(masses, axial, radial)
        except ValueError as exc:
            raise CliError("bad_reference", str(exc), 2)
    tables = {d: modes.normal_modes(spec, d) for d in ("axial", "radial")}
    for d, t in tables.items():
        # one row per mode: the displacement of each ion, then the frequency
        columns = ["mode", *(f"ion{i}_mass{m:g}" for i, m in enumerate(t.masses_amu)),
                   "frequency_khz"]
        rows = ([f"{d}_{k + 1}", *(f"{x:.3f}" for x in t.displacement[:, k]),
                 f"{t.frequencies[k] / 1e3:.1f}"] for k in range(t.n_modes))
        _write(out, f"modes_{d}.csv", _csv(cfg, seed, columns, rows))

    # same-species sanity: 3 equal-mass axial frequency ratios
    eq_spec = modes.ChainSpec(masses_amu=(modes.MASS_BA_138,) * 3,
                              axial_freq_ref=spec.axial_freq_ref,
                              radial_freq_ref=spec.radial_freq_ref)
    eq = modes.normal_modes(eq_spec, "axial").frequencies
    ratios = (eq / eq[0]).tolist()
    coupling = [
        {"mode": c.mode_index + 1, "frequency_hz": c.frequency,
         "participation": c.participation, "below_floor": c.below_floor}
        for c in modes.coolant_coupling_report(tables["radial"], coolant_index=0)
    ]
    summary = {
        "axial_freq_ref_hz": spec.axial_freq_ref,
        "radial_freq_ref_hz": spec.radial_freq_ref,
        "axial_frequencies_hz": tables["axial"].frequencies.tolist(),
        "radial_frequencies_hz": tables["radial"].frequencies.tolist(),
        "equal_mass_axial_ratios": ratios,
        "equal_mass_expected": [1.0, 3.0 ** 0.5, (29.0 / 5.0) ** 0.5],
        "radial_coolant_coupling": coupling,
        "max_eigen_residual": {d: float(np.max(t.residuals)) for d, t in tables.items()},
    }
    _write(out, "modes_summary.json", _json_payload(cfg, seed, summary))
    return 0


# --- budget ------------------------------------------------------------------

def cmd_budget(args, cfg: HardwareConfig, seed: int, out: Path) -> int:
    from . import analysis
    err = analysis.error_budget(cfg)
    eff = analysis.efficiency_budget()
    _write(out, "error_budget.csv", _csv(cfg, seed, ("contribution", "fraction"),
                                         [*err.entries, ("total", err.total)]))
    _write(out, "efficiency_budget.csv", _csv(
        cfg, seed, ("stage", "factor", "running_product"), eff.stages))

    _write(out, "budget.json", _json_payload(cfg, seed, {
        "error_budget": err.as_dict(), "efficiency_chain": eff.as_dict()}))
    sys.stdout.write("error budget\n" + err.to_text() + "\n\n")
    sys.stdout.write("photon collection chain\n" + eff.to_text() + "\n")
    return 0


# --- entry point -------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports usage errors as a CliError (subparsers inherit the class)."""

    def error(self, message: str):
        raise CliError("usage", f"{self.prog}: {message}", 2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ionlink",
        description="Heralded ion-ion entanglement simulator and analytics")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=str, default=None,
                        help="YAML config file (defaults to built-in parameters)")
    common.add_argument("--seed", type=int, default=None,
                        help=f"master seed (env {SEED_ENV_VAR} overrides the default)")
    common.add_argument("--out", type=str, default="ionlink-out",
                        help="output directory")
    common.add_argument("--ideal", action="store_true",
                        help="zero every error parameter")
    trials = argparse.ArgumentParser(add_help=False)
    trials.add_argument("--trials", type=int, default=100_000,
                        help="Monte Carlo sample count")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid", type=str, default=None,
                      help="grid spec start:stop:num for the scanned variable")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ion-photon", parents=[common, grid],
                   help="correlation and coherence scans of both sources"
                   ).set_defaults(func=cmd_ion_photon)
    p_swap = sub.add_parser("swap", parents=[common, trials],
                            help="heralded two-ion state analysis with readout")
    p_swap.add_argument("--profile", choices=("measured", "predicted"),
                        default="measured",
                        help="error profile: measured tomography level or "
                             "predicted budget level")
    p_swap.set_defaults(func=cmd_swap)
    p_rate = sub.add_parser("rate", parents=[common, trials, grid],
                            help="rate-vs-cap curves, analytic and Monte Carlo")
    p_rate.add_argument("--records", action="store_true",
                        help="also emit the per-request herald-record stream")
    p_rate.set_defaults(func=cmd_rate)
    p_modes = sub.add_parser("modes", parents=[common],
                             help="mixed-species chain normal modes")
    p_modes.add_argument("--axial-ref", type=float, default=None,
                         help="single-ion axial secular frequency (Hz)")
    p_modes.add_argument("--radial-ref", type=float, default=None,
                         help="single-ion radial secular frequency (Hz)")
    p_modes.add_argument("--single-ion", action="store_true",
                         help="solve a single reference ion instead of the chain")
    p_modes.set_defaults(func=cmd_modes)
    sub.add_parser("budget", parents=[common],
                   help="error and efficiency budget ledgers"
                   ).set_defaults(func=cmd_budget)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # config errors are reported before seed errors, both before the
        # subcommand's own checks
        cfg = _resolve_config(args)
        seed = _resolve_seed(args)
        return args.func(args, cfg, seed, Path(args.out))
    except CliError as exc:
        sys.stderr.write(json.dumps({"error": exc.category, "message": str(exc)})
                         + "\n")
        return exc.exit_code
    except (ValueError, RuntimeError) as exc:
        sys.stderr.write(json.dumps({"error": "runtime", "message": str(exc)})
                         + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
