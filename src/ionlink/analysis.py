"""Parity analysis, the two-ion fidelity lower bound and the sampled swap
experiment.

The analysis pulses are global (both ions see identical rotations), which
limits tomography to fidelity bounds relative to the plus Bell state; the
singlet is invariant under global rotations and cannot be analyzed this way.

Parity-scan structure for a two-ion state rho under global pi/2 pulses:

* one pulse, phase scanned: the parity oscillates at twice the phase with the
  amplitude set by the even coherence rho(dndn, upup), while the odd coherence
  only shifts the constant offset - so the single-pulse contrast bounds the
  undesired even coherence;
* a first pulse at phase 0 converts the odd coherence into an even one, so
  the two-pulse scan contrast measures the wanted coherences.

The fidelity lower bound combines odd populations, two-pulse contrast and the
single-pulse contrast as ``F >= (pops + C2 - C1)/2``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from . import budget, swap
from .config import HardwareConfig
from .detection import (
    ConfusionMatrix,
    SpamCorrection,
    ThresholdResult,
    choose_thresholds,
    count_pmf,
    simulate_histogram,
    spam_correct,
)
from .fitting import ScanResult, SinusoidFit, wrap_phase
from .quantum import DensityMatrix, apply_unitary, cache_by_value, rotated_populations

# little-endian basis order of the two-ion register (ion A is bit 0):
# index 0 = down,down ; 1 = up,down ; 2 = down,up ; 3 = up,up
IDX_DD, IDX_UD, IDX_DU, IDX_UU = 0, 1, 2, 3
PARITY_DIAG = np.array([1.0, -1.0, -1.0, 1.0])
BRIGHT_PARITY = np.array([1.0, -1.0, 1.0])  # parity of 0, 1 and 2 bright ions


def raman_rotation(phase) -> np.ndarray:
    """Qubit pi/2 rotation ``exp(-i pi/4 (cos(phase) sx + sin(phase) sy))``;
    an array of phases gives the stack ``phase.shape + (2, 2)``."""
    phase = np.asarray(phase)
    out = np.empty(phase.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = np.cos(np.pi / 4.0)
    s = np.sin(np.pi / 4.0)
    out[..., 0, 1] = -1j * np.exp(-1j * phase) * s
    out[..., 1, 0] = -1j * np.exp(1j * phase) * s
    return out


def _global_rotation(phase) -> np.ndarray:
    r = raman_rotation(phase)  # one r (x) r per phase of an array
    both = r[..., :, None, :, None] * r[..., None, :, None, :]
    return both.reshape(r.shape[:-2] + (4, 4))


@lru_cache(maxsize=32)
def _pulse(phase: float) -> np.ndarray:
    """Read-only global pi/2 pulse of one phase.  ``-0.0`` shares the entry
    of ``0.0``, whose pulse is bitwise the same."""
    u = _global_rotation(phase)
    u.setflags(write=False)
    return u


# one stack per scan grid, 4 grids kept per cache: at cli.MAX_GRID_POINTS
# phases a stack holds 25.6 MB
_pulse_stack = cache_by_value(maxsize=4)(_global_rotation)


@cache_by_value(maxsize=4)
def _two_pulse_stack(phases) -> np.ndarray:
    """The fixed phase-0 pulse, then one pulse at each phase: ``U(phi) U(0)``."""
    return _global_rotation(phases) @ _pulse(0.0)


def apply_analysis_pulse(rho: DensityMatrix, phase: float) -> DensityMatrix:
    """Global pi/2 pulse of the given phase on both ions."""
    if rho.dims != swap.TWO_ION_DIMS:
        raise ValueError("expects a two-ion state")
    return apply_unitary(rho, _pulse(float(phase)))


def _analysis_sequence(rho: DensityMatrix, phases, pulses: str) -> np.ndarray:
    """Populations ``(phase, 4)`` of the states after the analysis pulses:
    for ``"two"`` a fixed phase-0 pulse first (converting the odd Bell state
    to the even one), then one pulse at each phase."""
    if pulses not in ("one", "two"):
        raise ValueError("pulses must be 'one' or 'two'")
    stack = _pulse_stack(phases) if pulses == "one" else _two_pulse_stack(phases)
    return rotated_populations(rho, stack)


@cache_by_value(maxsize=8)
def _solver(x, angular_frequency) -> tuple[np.ndarray, np.ndarray, int]:
    """``(sin, cos, 1)`` regressors with their pseudo-inverse and rank, built
    once per grid and frequency (8 kept).  Singular values up to ``eps * n``
    times the largest count as zero, the cutoff of ``np.linalg.lstsq``, so
    the product with ``y`` is its minimum-norm solution."""
    design = np.column_stack([np.sin(angular_frequency * x),
                              np.cos(angular_frequency * x),
                              np.ones_like(x)])
    u, s, vt = np.linalg.svd(design, full_matrices=False)
    rank = int(np.count_nonzero(s > np.finfo(float).eps * max(design.shape) * s[0]))
    return design, (vt[:rank].T / s[:rank]) @ u[:, :rank].T, rank


def fit_sinusoid(x, y, angular_frequency: float) -> SinusoidFit:
    """Least-squares fit of ``offset + A sin(k x - phase)`` at known ``k``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be matching 1-d arrays")
    finite = np.isfinite(y)
    if not finite.all():
        x, y = x[finite], y[finite]
    if x.size < 3:
        raise ValueError("need at least 3 finite points to fit a sinusoid")
    # a product of Python floats overflows to inf without a warning
    reach = float(np.abs(x).max())
    if not math.isfinite(abs(angular_frequency) * reach):
        raise ValueError(f"k * x must be finite, got k = {angular_frequency!r} "
                         f"and |x| up to {reach!r}")
    design, pinv, rank = _solver(x, angular_frequency)
    coef = pinv @ y
    a_sin, a_cos, offset = coef
    amplitude = float(np.hypot(a_sin, a_cos))
    degenerate = rank < 3
    if amplitude < 1e-14:
        phase = 0.0
        degenerate = True
    else:
        # y = A sin(kx - phase): coeff of sin is A cos(phase), of cos is -A sin(phase)
        phase = wrap_phase(np.arctan2(-a_cos, a_sin))
    resid = y - design @ coef
    rms = float(np.sqrt(resid @ resid / resid.size))
    return SinusoidFit(amplitude=amplitude, phase=phase, offset=float(offset),
                       residual_rms=rms, degenerate=degenerate)


def _parity_result(grid: np.ndarray, values: np.ndarray) -> ScanResult:
    fit = fit_sinusoid(grid, values, 2.0)
    flags = ("fit_degenerate",) if fit.degenerate else ()
    return ScanResult(control=grid, series={"parity": values}, fits={"parity": fit},
                      angular_frequency=2.0, contrast=fit.amplitude, flags=flags)


def parity_scan(rho: DensityMatrix, phases, pulses: str = "two") -> ScanResult:
    """Parity vs analysis phase under global pi/2 pulses, fitted at period pi.

    ``pulses="one"`` scans the phase of a single pulse; ``"two"`` applies a
    fixed phase-0 pulse first and scans the second pulse's phase.  Contrast
    is the fitted amplitude.
    """
    if rho.dims != swap.TWO_ION_DIMS:
        raise ValueError("parity_scan expects a two-ion state")
    grid = np.asarray(phases, dtype=float)
    return _parity_result(grid, _analysis_sequence(rho, grid, pulses) @ PARITY_DIAG)


_ROUND_OFF = 1e-12  # excess past [0, 1] absorbed by FidelityBoundInputs


@dataclass(frozen=True)
class FidelityBoundInputs:
    """Measured ingredients of the two-ion fidelity lower bound."""

    odd_populations: float
    two_pulse_contrast: float
    one_pulse_contrast: float

    def __post_init__(self):
        for name in ("odd_populations", "two_pulse_contrast", "one_pulse_contrast"):
            v = getattr(self, name)
            if not -_ROUND_OFF <= v <= 1.0 + _ROUND_OFF:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
            # round-off past an edge (a noise-free state's odd population
            # can come out as 1.0000000000000002) is absorbed
            object.__setattr__(self, name, min(1.0, max(0.0, v)))


def fidelity_lower_bound(inputs: FidelityBoundInputs) -> float:
    """``(odd populations + two-pulse contrast - one-pulse contrast) / 2``.

    The one-pulse contrast is treated purely as a measured scalar bounding the
    nuisance even coherence; it is subtracted in full.
    """
    value = 0.5 * (inputs.odd_populations + inputs.two_pulse_contrast
                   - inputs.one_pulse_contrast)
    return min(1.0, max(0.0, value))


# --- sampled swap experiment --------------------------------------------------

MIN_SWAP_TRIALS = 100
CALIBRATION_SHOTS = 20000


def _sample_readout(pops: np.ndarray, shots, cm: ConfusionMatrix,
                    rng: np.random.Generator) -> np.ndarray:
    """Observed bright-count frequencies of z-basis readouts of each state of
    the populations ``pops`` (..., 4), ``shots`` readouts of each (an array
    that broadcasts against them).  A thresholded shot of a state with 0 (dd),
    1 (ud or du) or 2 (uu) bright ions falls in each class with that row of
    ``cm``, so one multinomial over ``bright @ cm.matrix`` draws them all."""
    diag = np.clip(pops, 0.0, None)
    bright = np.stack([diag[..., IDX_DD], diag[..., IDX_UD] + diag[..., IDX_DU],
                       diag[..., IDX_UU]], axis=-1)
    probs = np.clip(bright / bright.sum(axis=-1, keepdims=True) @ cm.matrix, 0.0, None)
    shots = np.asarray(shots)
    return rng.multinomial(shots, probs) / shots[..., None]


@dataclass(frozen=True, eq=False)
class SwapExperiment:
    """Sampled readout calibration, populations and parity scans of the
    heralded two-ion state, with the fidelity lower bound they give."""

    histograms: tuple[np.ndarray, ...]   # counts for 0, 1, 2 prepared bright ions
    thresholds: ThresholdResult
    raw_populations: np.ndarray          # observed bright-count frequencies
    populations: SpamCorrection          # SPAM-corrected bright-count populations
    scans: Mapping[str, ScanResult]      # parity scans keyed "two" and "one"
    bound_inputs: FidelityBoundInputs    # the clipped values the bound uses
    sign_counts: Mapping[int, int]       # heralds of sign +1 and -1

    @property
    def odd_populations(self) -> float:
        return float(self.populations.populations[1])

    @property
    def bound(self) -> float:
        return fidelity_lower_bound(self.bound_inputs)


def swap_experiment(cfg: HardwareConfig, trials: int,
                    rng: np.random.Generator) -> SwapExperiment:
    """Monte Carlo of the measurements behind the two-ion fidelity bound.

    The random draws come in this order: the calibration histograms for 0, 1
    and 2 bright ions; the herald signs (equally likely); then one readout
    draw per stage, each over both signs, sign +1 first: the populations, from
    half of each sign's heralds, then the ``"two"`` scan and the ``"one"``
    scan, each sharing a quarter of each sign's heralds over its 13 phases.
    Readouts are drawn from the confusion matrix of ``cfg``'s count pmf at
    the chosen thresholds, the one that ``spam_correct`` inverts at every
    point.  Each sign is analyzed after its own phase-alignment wait, which
    maps both onto the plus Bell state.
    """
    if trials < MIN_SWAP_TRIALS:
        raise ValueError(f"swap needs at least {MIN_SWAP_TRIALS} trials")
    pmf = count_pmf(cfg)
    hists = tuple(simulate_histogram(k, pmf, CALIBRATION_SHOTS, rng)
                  for k in range(3))
    thresholds = choose_thresholds(hists)
    cm = ConfusionMatrix.from_pmf(pmf, thresholds.t1, thresholds.t2)

    sign_counts = {+1: int(rng.binomial(trials, 0.5))}
    sign_counts[-1] = trials - sign_counts[+1]
    heralds = np.array(list(sign_counts.values()))
    states = [swap.aligned_state_from_config(cfg, sign=s) for s in sign_counts]

    # pooled over the signs: all counts over all shots
    shots = heralds // 2
    freq = _sample_readout(np.real([np.diag(st.matrix) for st in states]), shots, cm, rng)
    pop_freq = shots @ freq / shots.sum()
    pop_corr = spam_correct(pop_freq, cm)

    grid = np.linspace(0.0, np.pi, 13)
    shots = np.maximum(1, (heralds // 4) // grid.size)[:, None]
    scans = {}
    for pulses in ("two", "one"):
        pops = np.stack([_analysis_sequence(st, grid, pulses) for st in states])
        freq = _sample_readout(pops, shots, cm, rng)  # (sign, phase, class)
        parity = spam_correct(freq, cm).populations @ BRIGHT_PARITY
        scans[pulses] = _parity_result(grid, heralds / trials @ parity)

    bound_inputs = FidelityBoundInputs(
        odd_populations=float(pop_corr.populations[1]),
        two_pulse_contrast=min(1.0, scans["two"].contrast),
        one_pulse_contrast=min(1.0, scans["one"].contrast))
    return SwapExperiment(histograms=hists, thresholds=thresholds,
                          raw_populations=pop_freq, populations=pop_corr,
                          scans=scans, bound_inputs=bound_inputs,
                          sign_counts=sign_counts)


def swap_outputs(cfg: HardwareConfig, trials: int, seed: int, profile: str) -> dict:
    """The ``swap`` run: ``swap_experiment`` seeded with ``seed``, as its
    calibration histograms (frequencies, zero-padded to the widest),
    thresholds, parity scans and populations, and a summary of the bound that
    records ``trials`` and ``profile``, the name of the error profile of ``cfg``."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    res = swap_experiment(cfg, trials, rng)
    width = max(h.size for h in res.histograms)
    freqs = np.stack([np.pad(h / h.sum(), (0, width - h.size))
                      for h in res.histograms], axis=1)
    return {
        "readout_histograms.csv": (
            ("count", "freq_0bright", "freq_1bright", "freq_2bright"),
            [(c, *row) for c, row in enumerate(freqs.tolist())]),
        "readout_thresholds.json": asdict(res.thresholds),
        **{f"parity_{pulses}_pulse.csv": scan.table() for pulses, scan in res.scans.items()},
        "populations.csv": (
            ("bright_ions", "raw_frequency", "corrected_population"),
            zip(range(3), res.raw_populations.tolist(),
                res.populations.populations.tolist())),
        "swap_summary.json": {
            "trials": trials,
            "profile": profile,
            "odd_populations": res.odd_populations,
            "two_pulse_contrast": res.scans["two"].contrast,
            "one_pulse_contrast": res.scans["one"].contrast,
            "fidelity_lower_bound": res.bound,
            "bound_inputs": asdict(res.bound_inputs),
            "spam_clipped_mass": res.populations.clipped_mass,
            "herald_sign_counts": {"+1": res.sign_counts[+1], "-1": res.sign_counts[-1]},
            "alignment_wait_s": {"+1": swap.alignment_wait(cfg, +1),
                                 "-1": swap.alignment_wait(cfg, -1)},
        },
    }


# perfbench's state_sweep workload calls analysis.error_budget; the budget
# ledgers live in ``budget``
error_budget = budget.error_budget
