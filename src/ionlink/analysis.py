"""Parity analysis, the two-ion fidelity lower bound, and budget ledgers.

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

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from . import swap
from .config import HardwareConfig
from .detection import (
    ConfusionMatrix,
    SpamCorrection,
    ThresholdResult,
    choose_thresholds,
    simulate_histogram,
    spam_correct,
)
from .fitting import ScanResult, fit_sinusoid
from .ion_photon import dephasing_infidelity, raman_rotation
from .quantum import DensityMatrix, apply_unitary, cache_by_value, conjugate

TWO_ION_DIMS = (2, 2)
# little-endian basis order of the two-ion register (ion A is bit 0):
# index 0 = down,down ; 1 = up,down ; 2 = down,up ; 3 = up,up
IDX_DD, IDX_UD, IDX_DU, IDX_UU = 0, 1, 2, 3
PARITY_DIAG = np.array([1.0, -1.0, -1.0, 1.0])
BRIGHT_PARITY = np.array([1.0, -1.0, 1.0])  # parity of 0, 1 and 2 bright ions


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
    if rho.dims != TWO_ION_DIMS:
        raise ValueError("expects a two-ion state")
    return apply_unitary(rho, _pulse(float(phase)))


def _analysis_sequence(rho: DensityMatrix, phases, pulses: str) -> np.ndarray:
    """Validated stack of the states after the analysis pulses, one per
    phase: for ``"two"`` a fixed phase-0 pulse first (converting the odd Bell
    state to the even one), then one pulse at each phase."""
    if pulses not in ("one", "two"):
        raise ValueError("pulses must be 'one' or 'two'")
    stack = _pulse_stack(phases) if pulses == "one" else _two_pulse_stack(phases)
    return conjugate(rho, stack)


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
    if rho.dims != TWO_ION_DIMS:
        raise ValueError("parity_scan expects a two-ion state")
    grid = np.asarray(phases, dtype=float)
    pops = np.real(np.diagonal(_analysis_sequence(rho, grid, pulses), axis1=-2, axis2=-1))
    values = pops @ PARITY_DIAG
    return _parity_result(grid, values)


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


def _sample_readout(rho: np.ndarray, shots, cm: ConfusionMatrix,
                    rng: np.random.Generator) -> np.ndarray:
    """Observed bright-count frequencies of z-basis readouts of each matrix of
    the stack ``rho`` (..., 4, 4), ``shots`` readouts of each (an array that
    broadcasts against the stack).  A thresholded shot of a state with 0 (dd),
    1 (ud or du) or 2 (uu) bright ions falls in each class with that row of
    ``cm``, so one multinomial over ``bright @ cm.matrix`` draws them all."""
    diag = np.clip(np.real(np.diagonal(rho, axis1=-2, axis2=-1)), 0.0, None)
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
    Readouts are drawn from the confusion matrix of the model at the chosen
    thresholds, the one that ``spam_correct`` inverts at every point.  Each
    sign is analyzed after its own phase-alignment wait, which maps both onto
    the plus Bell state.
    """
    if trials < MIN_SWAP_TRIALS:
        raise ValueError(f"swap needs at least {MIN_SWAP_TRIALS} trials")
    model = cfg.readout_model()
    hists = tuple(simulate_histogram(k, model, CALIBRATION_SHOTS, rng)
                  for k in range(3))
    thresholds = choose_thresholds(hists)
    cm = ConfusionMatrix.from_model(model, thresholds.t1, thresholds.t2)

    sign_counts = {+1: int(rng.binomial(trials, 0.5))}
    sign_counts[-1] = trials - sign_counts[+1]
    heralds = np.array(list(sign_counts.values()))
    states = [swap.aligned_state_from_config(cfg, sign=s) for s in sign_counts]

    # pooled over the signs: all counts over all shots
    shots = heralds // 2
    freq = _sample_readout(np.stack([st.matrix for st in states]), shots, cm, rng)
    pop_freq = shots @ freq / shots.sum()
    pop_corr = spam_correct(pop_freq, cm)

    grid = np.linspace(0.0, np.pi, 13)
    shots = np.maximum(1, (heralds // 4) // grid.size)[:, None]
    scans = {}
    for pulses in ("two", "one"):
        rotated = np.stack([_analysis_sequence(st, grid, pulses) for st in states])
        freq = _sample_readout(rotated, shots, cm, rng)  # (sign, phase, class)
        parity = [[spam_correct(f, cm).populations @ BRIGHT_PARITY for f in row]
                  for row in freq]
        scans[pulses] = _parity_result(grid, heralds / trials @ np.array(parity))

    bound_inputs = FidelityBoundInputs(
        odd_populations=float(pop_corr.populations[1]),
        two_pulse_contrast=min(1.0, scans["two"].contrast),
        one_pulse_contrast=min(1.0, scans["one"].contrast))
    return SwapExperiment(histograms=hists, thresholds=thresholds,
                          raw_populations=pop_freq, populations=pop_corr,
                          scans=scans, bound_inputs=bound_inputs,
                          sign_counts=sign_counts)


@dataclass(frozen=True)
class BudgetLedger:
    """Named additive contributions with their total."""

    entries: tuple[tuple[str, float], ...]
    total: float

    def __init__(self, entries):
        entries = tuple((str(k), float(v)) for k, v in entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "total", sum(v for _, v in entries))

    def as_dict(self) -> dict:
        out = dict(self.entries)
        out["total"] = self.total
        return out

    def to_text(self) -> str:
        width = max(len(k) for k, _ in self.entries + (("total", 0.0),))
        lines = [f"{k:<{width}}  {100.0 * v:6.3f} %" for k, v in self.entries]
        lines.append(f"{'total':<{width}}  {100.0 * self.total:6.3f} %")
        return "\n".join(lines)


def error_budget(cfg: HardwareConfig) -> BudgetLedger:
    """First-order additive infidelity budget of the heralded two-ion state.

    polarization: exact Werner-admixture propagation of both sources' photon
    depolarizing through the swap, ``(3/4) w_pol`` with
    ``w_pol = 1 - (1-pA)(1-pB)`` from ``HardwareConfig.polarization_weight``.
    coherence: pair dephasing over the analysis delay at the configured
    envelope.  other: wavepacket-overlap contrast loss plus the incoherent
    dark-count and double-excitation admixtures.

    The exact state is ``swap.swapped_state``: it reads the same
    ``polarization_weight``, the pair dephasing and the overlap multiply one
    coherence factor (``HardwareConfig.herald_coherence``) and the admixtures
    combine into one weight (``HardwareConfig.mixed_herald_weight``).  The
    ledger and that state are compared in tests, not conflated.
    """
    polarization = 0.75 * cfg.polarization_weight()
    coherence = dephasing_infidelity(cfg.analysis_delay, cfg.t2_star_bell,
                                     cfg.bell_coherence_envelope)
    other = (0.5 * (1.0 - cfg.temporal_overlap)
             + 0.75 * cfg.dark_herald_weight()
             + 0.75 * cfg.double_excitation_prob)
    return BudgetLedger([("polarization", polarization),
                         ("coherence", coherence),
                         ("other", other)])


# Printed per-stage efficiencies of the photon collection chain, in path
# order from state preparation to detector.
DEFAULT_EFFICIENCY_CHAIN = (
    ("optical pumping", 0.96),
    ("pulsed excitation", 0.96),
    ("useful branching ratio", 0.732),
    ("objective solid angle", 0.20),
    ("trap-rod clearance", 0.97),
    ("objective transmission", 0.91),
    ("fiber coupling", 0.30),
    ("detector quantum efficiency", 0.71),
)


@dataclass(frozen=True)
class EfficiencyReport:
    """Multiplicative efficiency chain with per-stage attribution."""

    stages: tuple[tuple[str, float, float], ...]  # (label, factor, running)
    total: float

    def as_dict(self) -> dict:
        return {
            "stages": [{"label": l, "factor": f, "running": r}
                       for l, f, r in self.stages],
            "total": self.total,
        }

    def to_text(self) -> str:
        width = max(len(l) for l, _, _ in self.stages)
        lines = [f"{l:<{width}}  {f:7.4f}  -> {100.0 * r:7.4f} %"
                 for l, f, r in self.stages]
        lines.append(f"{'total':<{width}}  {'':7}     {100.0 * self.total:7.4f} %")
        return "\n".join(lines)


def efficiency_budget(chain=DEFAULT_EFFICIENCY_CHAIN) -> EfficiencyReport:
    """Running product of a chain of ``(label, factor)`` efficiencies."""
    stages = []
    running = 1.0
    for item in chain:
        label, factor = item
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"factor for {label!r} must be in (0, 1], got {factor}")
        running *= factor
        stages.append((label, float(factor), running))
    return EfficiencyReport(stages=tuple(stages), total=running)
