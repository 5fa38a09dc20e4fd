"""Ion-photon entangled pair generation and its characterization scans.

The heralded pair lives on the register ``(ion, photon)`` with the ideal state
``|psi> = (|H>|down> + e^{i phase}|V>|up>)/sqrt(2)``.  Polarization mixing
in the imaging path depolarizes the photon with strength ``w``, so the pair
is the Werner-type state ``(1-w)|psi><psi| + w I/4`` (Werner, PRA 40, 4277
(1989)), and so is its heralded ion; the dephasing error model is
``config.dephasing_infidelity``.  This layer represents only such states:
each scan is a sinusoid whose exact coefficients ``fitting.exact_scan``
turns into its series and fit, and numpy loads only when a state's
``matrix`` is read.  The
general layer (waveplate and Raman unitaries, stacked scans of any state) is
the reference in ``tests/qutil.py``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .config import TWO_PI, HardwareConfig
from .fitting import ScanResult, exact_scan, linspace, wrap_phase

PAIR_DIMS, ION_DIMS = (2, 2), (2,)  # (ion, photon) and the ion alone


@dataclass(frozen=True)
class SourceParams:
    """Per-source parameters of the heralded state of one ion-photon interface."""

    pol_mixing: float = 0.0
    superposition_phase: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.pol_mixing <= 1.0:
            raise ValueError(f"pol_mixing must be in [0, 1], got {self.pol_mixing}")
        if not 0.0 <= self.superposition_phase < TWO_PI:
            raise ValueError("superposition_phase must be in [0, 2*pi)")


@dataclass(frozen=True)
class WernerState:
    """``(1-w)|psi><psi| + w I/d``, ``|psi> = (|0> + e^{i phase}|d-1>)/sqrt(2)``, on
    the ion-photon pair (``PAIR_DIMS``, basis index ion + 2 photon: ``|0>`` is
    ``|H,down>`` and ``|3>`` is ``|V,up>``) or the heralded ion (``ION_DIMS``)."""

    mixing: float
    phase: float
    dims: tuple[int, ...]

    @property
    def amplitude(self) -> float:
        """``A = (1-w)/2``, the magnitude of the coherence ``<d-1|rho|0>``."""
        return 0.5 * (1.0 - self.mixing)

    @property
    def matrix(self):
        """The read-only density matrix, built and validated on each read."""
        import numpy as np

        from .quantum import DensityMatrix
        d, c = math.prod(self.dims), cmath.exp(1j * self.phase)
        mat = self.mixing / d * np.eye(d, dtype=complex)
        # |0><0|, |d-1><d-1| and the coherences between them, each times A
        mat[::d - 1, ::d - 1] += self.amplitude * np.array([[1.0, c.conjugate()], [c, 1.0]])
        return DensityMatrix(mat, self.dims).matrix


def emit_ion_photon_state(params: SourceParams) -> WernerState:
    """Heralded ion-photon state of one source, photon detected: polarization
    mixing depolarizes the photon, ``(1-w) rho + w (I/2 (x) Tr_photon rho)``.
    Under sigma+ excitation a pumping or excitation failure emits no photon,
    so it lowers the attempt success probability but does not enter the
    heralded state."""
    return WernerState(params.pol_mixing, params.superposition_phase, PAIR_DIMS)


def _checked(state: WernerState, dims: tuple[int, ...]) -> None:
    if state.dims != dims:
        raise ValueError(f"expects a state of dims {dims}, got {state.dims}")


def correlation_scan(state: WernerState, hwp_angles) -> ScanResult:
    """Conditional P(ion up | photon V) and (... | H) vs half-wave-plate angle:
    the photon passes the plate and a H/V polarizer, its marginal stays 1/2,
    and the conditionals are ``1/2 +- A cos 4 theta`` (fitted phases 3 pi/2
    for V, pi/2 for H).  Contrast, the mean fitted peak-to-peak swing of the
    two branches, is ``2A = 1 - w``."""
    _checked(state, PAIR_DIMS)
    a = state.amplitude
    return exact_scan(hwp_angles, 4.0, {"p_up_given_V": (0.5, a, 1.5 * math.pi),
                                        "p_up_given_H": (0.5, a, 0.5 * math.pi)}, 2.0 * a)


def heralded_ion_state(state: WernerState, sign: int) -> WernerState:
    """Ion state heralded by detecting the photon in ``(|H> + sign |V>)/sqrt2``
    (a half-wave plate rotating the polarization by 45 degrees): the ion block
    ``<d| rho |d>`` over its trace 1/2 has populations 1/2 and coherence
    ``rho[1, 0] = sign A e^{i phase}``, so it is the ion state of the same
    mixing at ``phase``, or ``phase + pi`` for sign -1."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    _checked(state, PAIR_DIMS)
    return WernerState(state.mixing, wrap_phase(state.phase + (sign < 0) * math.pi), ION_DIMS)


def coherence_scan(state: WernerState, analysis_phases) -> ScanResult:
    """P(up) after a pi/2 rotation of phase x, ``1/2 + A sin(x - phi)`` for the
    ion heralded at ``phi``: the fitted phase is phi, and the contrast ``1 - w``
    is the coherence magnitude, which bounds the pair fidelity from below."""
    _checked(state, ION_DIMS)
    a = state.amplitude
    return exact_scan(analysis_phases, 1.0, {"p_up": (0.5, a, state.phase)}, 2.0 * a)


def correlated_populations(state: WernerState) -> float:
    """Population ``1 - w/2`` in the correlated branches ``|H,down>`` and ``|V,up>``."""
    _checked(state, PAIR_DIMS)
    return 1.0 - 0.5 * state.mixing


def fidelity_upper_bound(correlation_contrast: float) -> float:
    """Upper bound ``(1 + C)/2`` from the correlation-scan contrast."""
    return min(1.0, max(0.0, 0.5 * (1.0 + correlation_contrast)))


def fidelity_lower_bound_pair(correlated_pops: float, coherence_contrast: float) -> float:
    """Lower bound ``(populations + coherence contrast)/2``, the standard
    two-scan bound: the correlated populations cap the diagonal part of the
    overlap and the coherence contrast the off-diagonal part.  The modeled
    experiment's cited analysis does not restate its exact bound, so this
    documented convention is checked against the reference values only."""
    return min(1.0, max(0.0, 0.5 * (correlated_pops + coherence_contrast)))


def ion_photon_outputs(cfg: HardwareConfig, hwp_angles=None) -> dict:
    """The ``ion-photon`` run: of each source, the correlation scan over
    ``hwp_angles`` (by default 37 angles over ``[0, pi/2]``) and the
    coherence scan of its ``+1`` herald over 41 phases, as CSV tables, and
    their fits with both fidelity bounds in ``ion_photon_fits.json``."""
    if hwp_angles is None:
        hwp_angles = linspace(0.0, math.pi / 2.0, 37)
    phases = linspace(0.0, TWO_PI, 41)
    files, summary = {}, {}
    for label, source in (("A", cfg.source_a()), ("B", cfg.source_b())):
        pair = emit_ion_photon_state(source)
        corr = correlation_scan(pair, hwp_angles)
        coh = coherence_scan(heralded_ion_state(pair, +1), phases)
        files[f"correlation_{label}.csv"] = corr.table()
        files[f"coherence_{label}.csv"] = coh.table()
        pops = correlated_populations(pair)
        summary[label] = {
            "correlation": corr.fit_summary(),
            "coherence": coh.fit_summary(),
            "correlated_populations": pops,
            "fidelity_upper_bound": fidelity_upper_bound(corr.contrast),
            "fidelity_lower_bound": fidelity_lower_bound_pair(pops, coh.contrast),
        }
    files["ion_photon_fits.json"] = summary
    return files
