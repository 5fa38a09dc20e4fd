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

The heralded ``swap.XState`` has no even coherence, so its readout class
probabilities after the pulses are closed forms (``bright_classes``), which
the exact scans and the sampled swap experiment read with ``math``; only
``apply_analysis_pulse`` loads numpy.  The scans of any two-ion density matrix
are the reference in ``tests/qutil.py``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Mapping

from . import budget, swap
from .config import HardwareConfig
from .detection import (
    ConfusionMatrix,
    SpamCorrection,
    ThresholdResult,
    adjugate,
    choose_thresholds,
    count_pmf,
    simulate_histogram,
    spam_correct,
)
from .fitting import ScanResult, SinusoidFit, exact_scan, linspace, sinusoid_fit
from .rng import Generator


@lru_cache(maxsize=32)
def _pulse(phase: float):
    """Read-only global pi/2 pulse ``r (x) r`` of one phase (``-0.0`` shares the
    bitwise-equal entry of ``0.0``): ``r = exp(-i pi/4 (cos(phase) sx + sin(phase) sy))``."""
    import numpy as np
    c, s = np.cos(np.pi / 4.0), np.sin(np.pi / 4.0)
    r = np.array([[c, -1j * np.exp(-1j * phase) * s], [-1j * np.exp(1j * phase) * s, c]])
    u = np.kron(r, r)
    u.setflags(write=False)
    return u


def apply_analysis_pulse(rho, phase: float):
    """Global pi/2 pulse of the given phase on both ions of an ``XState`` or
    a two-ion ``DensityMatrix``, as a ``DensityMatrix``."""
    if rho.dims != swap.TWO_ION_DIMS:
        raise ValueError("expects a two-ion state")
    from . import quantum  # with numpy, on the first pulse
    return quantum.apply_unitary(rho, _pulse(float(phase)))


def bright_classes(rho: swap.XState, pulses: str, phase: float = 0.0) -> tuple[float, ...]:
    """Probabilities ``(p0, p1, p2)`` of 0, 1 and 2 bright ions in a z-basis
    readout of the X state ``(w, c)``: with ``pulses="none"`` as it is,
    ``(w/4, 1 - w/2, w/4)``; after ``"one"`` global pi/2 pulse at ``phase``,
    ``p0 = p2 = 1/4 + Re(c)/2`` at any phase; after ``"two"``, the phase-0
    pulse and then one at ``phase``, ``p0 = p2 = w/4 + (1/2 - w/2 + Re c)
    sin^2(phase) / 2``.  In each case ``p1 = 1 - 2 p0``."""
    w, re_c = rho.mixing, rho.coherence.real
    if pulses == "none":
        p0 = 0.25 * w
    elif pulses == "one":
        p0 = 0.25 + 0.5 * re_c
    elif pulses == "two":
        p0 = 0.25 * w + 0.5 * (0.5 - 0.5 * w + re_c) * math.sin(phase) ** 2
    else:
        raise ValueError("pulses must be 'none', 'one' or 'two'")
    return p0, 1.0 - 2.0 * p0, p0


# swap's parity scans, fitted at period pi.  The first 12 of the 13 phases span
# one period, so the Gram matrix G = A^T A of the (sin, cos, 1) regressors is
# near [[6, 0, 0], [0, 7, 1], [0, 1, 13]] (A's condition number is 1.5), and the
# normal-equation rows G^-1 A^T lose only a few ulps to an SVD solve.
PARITY_PHASES = linspace(0.0, math.pi, 13)
_REGRESSORS = [(math.sin(2.0 * x), math.cos(2.0 * x), 1.0) for x in PARITY_PHASES]
_GRAM_ADJ, _GRAM_DET = adjugate([[math.fsum(a[i] * a[j] for a in _REGRESSORS)
                                  for j in range(3)] for i in range(3)])
_PARITY_FIT = [[math.fsum(_GRAM_ADJ[r][i] * a[i] for i in range(3)) / _GRAM_DET
                for a in _REGRESSORS] for r in range(3)]


def fit_parity_scan(values) -> SinusoidFit:
    """Least-squares fit of ``offset + A sin(2x - phase)`` to parities at
    ``PARITY_PHASES``: the normal-equation solve, refined once by the solve of
    its residuals, which are summed exactly."""
    if len(values) != len(PARITY_PHASES):
        raise ValueError(f"expects one parity per phase of PARITY_PHASES, got {len(values)}")
    coef, resid = [0.0, 0.0, 0.0], values
    for _ in range(2):  # the solve, then the refinement; each ends with the residuals
        coef = [a + math.fsum(r * e for r, e in zip(row, resid))
                for a, row in zip(coef, _PARITY_FIT)]
        resid = [math.fsum((v, -coef[0] * s, -coef[1] * c, -coef[2]))
                 for v, (s, c, _) in zip(values, _REGRESSORS)]
    a_sin, a_cos, offset = coef
    # the sin coefficient is A cos(phase), the cos coefficient -A sin(phase)
    return sinusoid_fit(math.hypot(a_sin, a_cos), math.atan2(-a_cos, a_sin), offset,
                        math.sqrt(math.fsum(r * r for r in resid) / 13))


def parity_scan(rho: swap.XState, phases, pulses: str = "two") -> ScanResult:
    """Parity vs analysis phase of the X state under global pi/2 pulses, the
    ``bright_classes`` parity ``p0 - p1 + p2 = 4 p0 - 1``, with its exact fit
    at period pi, whose amplitude is the contrast.

    ``pulses="one"`` scans the phase of a single pulse, a flat ``2 Re c``;
    ``"two"`` applies a fixed phase-0 pulse first and scans the second
    pulse's phase, ``offset + a_cos cos(2x)`` with the offset and ``a_cos``
    from the parities at 0 and pi/2, built by ``fitting.exact_scan``.
    """
    if rho.dims != swap.TWO_ION_DIMS or pulses not in ("one", "two"):
        raise ValueError("parity_scan expects a two-ion state and pulses 'one' or 'two'")
    at_0, at_90 = (4.0 * bright_classes(rho, pulses, x)[0] - 1.0 for x in (0.0, math.pi / 2.0))
    a_cos = 0.5 * (at_0 - at_90)  # -A sin(phase), so the phase is -pi/2 or pi/2
    amplitude, phase = abs(a_cos), math.copysign(0.5 * math.pi, -a_cos)
    return exact_scan(phases, 2.0, {"parity": (0.5 * (at_0 + at_90), amplitude, phase)},
                      amplitude)


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


def _sample_readout(bright, shots: int, cm: ConfusionMatrix, rng: Generator) -> list[float]:
    """Observed bright-count frequencies of ``shots`` z-basis readouts of a
    state whose bright-class probabilities are ``bright`` (0, 1 and 2 bright
    ions): a thresholded shot of class j falls in each observed class with
    that row of ``cm``, so one multinomial over ``bright @ cm.matrix`` draws
    them all."""
    probs = [max(0.0, sum(b * m for b, m in zip(bright, column))) for column in zip(*cm.matrix)]
    return [k / shots for k in rng.multinomial(shots, probs)]


@dataclass(frozen=True, eq=False)
class SwapExperiment:
    """Sampled readout calibration, populations and parity scans of the
    heralded two-ion state, with the fidelity lower bound they give."""

    histograms: tuple[tuple[int, ...], ...]  # counts for 0, 1, 2 prepared bright ions
    thresholds: ThresholdResult
    raw_populations: list[float]         # observed bright-count frequencies
    populations: SpamCorrection          # SPAM-corrected bright-count populations
    scans: Mapping[str, ScanResult]      # parity scans keyed "two" and "one"
    bound_inputs: FidelityBoundInputs    # the clipped values the bound uses
    sign_counts: Mapping[int, int]       # heralds of sign +1 and -1

    @property
    def odd_populations(self) -> float:
        return self.populations.populations[1]

    @property
    def bound(self) -> float:
        return fidelity_lower_bound(self.bound_inputs)


def swap_experiment(cfg: HardwareConfig, trials: int, rng: Generator) -> SwapExperiment:
    """Monte Carlo of the measurements behind the two-ion fidelity bound.

    The random draws come in this order: the calibration histograms for 0, 1
    and 2 bright ions; the herald signs (equally likely); then the readouts of
    each stage, sign +1 first: the populations, from half of each sign's
    heralds, then the ``"two"`` scan and the ``"one"`` scan, each sharing a
    quarter of each sign's heralds over its 13 phases, in phase order.  The
    histograms set only the thresholds: readouts are drawn from the
    confusion matrix of ``cfg``'s count pmf at those thresholds, the one
    that ``spam_correct`` inverts at every point, and from
    ``bright_classes`` of each sign's state.  Each sign is
    analyzed after its own phase-alignment wait, which maps both onto the
    plus Bell state.
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
    heralds = list(sign_counts.values())
    states = [swap.aligned_state_from_config(cfg, sign=s) for s in sign_counts]

    # pooled over the signs: all counts over all shots
    shots = [n // 2 for n in heralds]
    freqs = [_sample_readout(bright_classes(st, "none"), k, cm, rng)
             for st, k in zip(states, shots)]
    pop_freq = [(shots[0] * a + shots[1] * b) / sum(shots) for a, b in zip(*freqs)]
    pop_corr = spam_correct(pop_freq, cm)

    grid = PARITY_PHASES
    weights = [n / trials for n in heralds]
    scans = {}
    for pulses in ("two", "one"):
        parity = []  # per sign, per phase
        for st, n in zip(states, heralds):
            k = max(1, (n // 4) // len(grid))
            freqs = [_sample_readout(bright_classes(st, pulses, x), k, cm, rng) for x in grid]
            parity.append([p0 - p1 + p2 for p0, p1, p2 in
                           (spam_correct(f, cm).populations for f in freqs)])
        values = [weights[0] * a + weights[1] * b for a, b in zip(*parity)]
        fit = fit_parity_scan(values)
        scans[pulses] = ScanResult(grid, {"parity": values}, {"parity": fit}, 2.0, fit.amplitude,
                                   ("fit_degenerate",) if fit.degenerate else ())

    bound_inputs = FidelityBoundInputs(
        odd_populations=pop_corr.populations[1],
        two_pulse_contrast=min(1.0, scans["two"].contrast),
        one_pulse_contrast=min(1.0, scans["one"].contrast))
    return SwapExperiment(histograms=hists, thresholds=thresholds,
                          raw_populations=pop_freq, populations=pop_corr,
                          scans=scans, bound_inputs=bound_inputs,
                          sign_counts=sign_counts)


def swap_outputs(cfg: HardwareConfig, trials: int, seed: int, profile: str) -> dict:
    """The ``swap`` run: ``swap_experiment`` on ``Generator(seed)``, as its
    calibration histograms (frequencies, zero-padded to the widest),
    thresholds, parity scans and populations, and a summary of the bound that
    records ``trials`` and ``profile``, the name of the error profile of ``cfg``."""
    res = swap_experiment(cfg, trials, Generator(seed))
    width = max(map(len, res.histograms))
    freqs = {f"freq_{b}bright": [c / t for c in h] + [0.0] * (width - len(h))
             for b, (h, t) in enumerate(zip(res.histograms, map(sum, res.histograms)))}
    return {
        "readout_histograms.csv": {"count": range(width), **freqs},
        "readout_thresholds.json": asdict(res.thresholds),
        **{f"parity_{pulses}_pulse.csv": scan.table() for pulses, scan in res.scans.items()},
        "populations.csv": {"bright_ions": range(3),
                            "raw_frequency": res.raw_populations,
                            "corrected_population": res.populations.populations},
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
