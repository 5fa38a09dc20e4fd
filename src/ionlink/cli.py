"""Command-line front end: each subcommand checks its arguments, runs one
library pipeline (``<module>.<subcommand>_outputs``) and writes what it returns.

``_write`` writes each output by its suffix: a ``.csv`` body of named,
equal-length columns with ``_csv``, the only code that lays columns out as
rows, and a ``.json`` dict as JSON.  Both carry the package version, config
hash and master seed, as '#'-prefixed header lines (CSV) or top-level keys
(JSON), so a rerun with the same config and seed is byte-identical.  Exit
code 0 means every requested output was written; config and usage problems
exit with code 2, runtime failures with code 1, both after printing a
machine-parsable JSON error object to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Each cmd_* imports the library module it runs, so that a fresh process
# loads only those: budget, modes, ion-photon and swap load no numpy.
from . import __version__
from .config import (
    MAX_LOOP_CAP,
    HardwareConfig,
    ideal_config,
    load_config,
    measured_swap_config,
)

SEED_ENV_VAR = "IONLINK_SEED"
DEFAULT_SEED = 1
MAX_GRID_POINTS = 100_000
# Grid ends lie within +-MAX_GRID_END, so that stop - start and k * x stay
# finite for each fitted frequency k <= 4.
MAX_GRID_END = 1e300
# Memory grows with --trials for rate only: a campaign holds about 48 bytes
# per request.  Swap draws one readout per state and phase, so its RSS stays
# about 20 MB at any trial count.
MAX_TRIALS = 10_000_000
# rate --records writes at most this many requests per schedule
MAX_RECORDS = 100_000


class CliError(Exception):
    def __init__(self, category: str, message: str, exit_code: int = 1):
        super().__init__(message)
        self.category = category
        self.exit_code = exit_code


def _parse_grid(spec: str):
    """Parse 'start:stop:num' into a linspace grid of 3 to MAX_GRID_POINTS."""
    from .fitting import linspace
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
    return linspace(start, stop, num)


def _resolve_config(args) -> HardwareConfig:
    try:
        cfg = HardwareConfig() if args.config is None else load_config(args.config)
        # --ideal resets every field the calibration sets, so it skips the
        # calibration, which raises for a config that cannot reach its targets
        if getattr(args, "profile", None) == "measured" and not args.ideal:
            cfg = measured_swap_config(cfg)
    except FileNotFoundError:
        raise CliError("config_missing", f"config file not found: {args.config}", 2)
    except OSError as exc:  # a directory, or a file without read permission
        raise CliError("config_invalid",
                       f"cannot read config file {args.config}: {exc.strerror}", 2)
    except ValueError as exc:
        raise CliError("config_invalid", str(exc), 2)
    return ideal_config(cfg) if args.ideal else cfg


def _resolve_seed(args) -> int:
    seed, source = args.seed, "--seed"
    if seed is None:
        env, source = os.environ.get(SEED_ENV_VAR, str(DEFAULT_SEED)), SEED_ENV_VAR
        try:
            seed = int(env)
        except ValueError:
            raise CliError("bad_seed", f"{SEED_ENV_VAR}={env!r} is not an integer", 2)
    if seed < 0:
        raise CliError("bad_seed", f"{source} must be non-negative, got {seed}", 2)
    return seed


def _run_header(cfg: HardwareConfig, seed: int) -> dict:
    return {"ionlink": __version__, "config_hash": cfg.config_hash(), "seed": seed}


def _csv(header: dict, table: dict) -> str:
    """The run header as '# key=value' lines, the column names, then the rows
    of ``table``'s columns, formatted once per column: '%.12g' if its first
    cell is a float, else str().  Unequal columns raise ValueError."""
    cells = [map("%.12g".__mod__, col) if col and isinstance(col[0], float)
             else map(str, col) for col in table.values()]
    lines = [f"# {k}={v}" for k, v in header.items()]
    lines.append(",".join(table))
    lines.extend(map(",".join, zip(*cells, strict=True)))
    return "\n".join(lines) + "\n"


def _write(out: Path, cfg: HardwareConfig, seed: int, files: dict) -> None:
    """Write each output of ``files`` into ``out``: a ``.csv`` table with
    ``_csv``, a ``.json`` dict as JSON with the run header's keys."""
    path, header = out / next(iter(files)), _run_header(cfg, seed)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, body in files.items():
            path = out / name
            path.write_text(
                _csv(header, body) if path.suffix == ".csv"
                else json.dumps(header | body, sort_keys=True, indent=2))
    except OSError as exc:  # e.g. --out names an existing file
        raise CliError("bad_out", f"cannot write {path}: {exc}", 2) from None


def _check_trials(command: str, trials: int, low: int) -> None:
    if not low <= trials <= MAX_TRIALS:
        raise CliError("bad_trials", f"{command} needs {low} to {MAX_TRIALS} "
                       f"trials, got {trials}", 2)


def cmd_ion_photon(args, cfg: HardwareConfig, seed: int, out: Path) -> None:
    from .ion_photon import ion_photon_outputs
    grid = _parse_grid(args.grid) if args.grid else None
    _write(out, cfg, seed, ion_photon_outputs(cfg, grid))


def cmd_swap(args, cfg: HardwareConfig, seed: int, out: Path) -> None:
    from .analysis import MIN_SWAP_TRIALS, swap_outputs
    _check_trials("swap", args.trials, MIN_SWAP_TRIALS)
    _write(out, cfg, seed, swap_outputs(cfg, args.trials, seed, args.profile))


def cmd_rate(args, cfg: HardwareConfig, seed: int, out: Path) -> None:
    from .protocol import rate_outputs
    _check_trials("rate", args.trials, 1)
    grid = _parse_grid(args.grid) if args.grid else None
    if grid is not None and max(grid) > MAX_LOOP_CAP:
        raise CliError("bad_grid", f"caps must not exceed "
                       f"{MAX_LOOP_CAP}, got {max(grid):g}", 2)
    _write(out, cfg, seed, rate_outputs(cfg, grid, args.trials, seed,
                                        MAX_RECORDS if args.records else 0))


def cmd_modes(args, cfg: HardwareConfig, seed: int, out: Path) -> None:
    from . import modes
    try:
        spec = modes.chain_spec(args.axial_ref, args.radial_ref, args.single_ion)
    except ValueError as exc:
        raise CliError("bad_reference", str(exc), 2)
    _write(out, cfg, seed, modes.modes_outputs(spec))


def cmd_budget(args, cfg: HardwareConfig, seed: int, out: Path) -> None:
    from .budget import budget_outputs
    files, text = budget_outputs(cfg)
    _write(out, cfg, seed, files)
    sys.stdout.write(text)


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
    grid.add_argument("--grid", type=str, default=None, metavar="START:STOP:NUM",
                      help="grid of the scanned variable; write --grid=START:STOP:NUM "
                           "when START is negative")

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
        args.func(args, cfg, seed, Path(args.out))
        return 0
    except CliError as exc:
        error, message, code = exc.category, str(exc), exc.exit_code
    except (ValueError, RuntimeError) as exc:
        error, message, code = "runtime", str(exc), 1
    sys.stderr.write(json.dumps({"error": error, "message": message}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
