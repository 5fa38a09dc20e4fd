"""Ion-photon entangled pair generation and its characterization scans.

The heralded pair lives on the register ``(ion, photon)`` with the ideal state
``(|H>|down> + e^{i phase}|V>|up>)/sqrt(2)``.  The imperfection modeled here
is polarization mixing in the imaging path, as depolarizing of configurable
strength on the photon qubit; the dephasing error model is
``config.dephasing_infidelity``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import HardwareConfig
from .fitting import ScanResult, fit_sinusoid
from .quantum import DensityMatrix, cache_by_value, lift, rotated_populations

TWO_PI = 2.0 * np.pi

# subsystem indices of the pair register
ION = 0
PHOTON = 1
PAIR_DIMS = (2, 2)

# photon basis values (H = 0, V = 1) and the ion's up value (down = 0)
H, V = 0, 1
UP = 1

P_UP = np.diag([0.0, 1.0]).astype(complex)
P_DOWN = np.diag([1.0, 0.0]).astype(complex)


def _frozen_diagonal(op: np.ndarray, index: int) -> np.ndarray:
    diag = np.real(np.diag(lift(op, index, PAIR_DIMS)))
    diag.setflags(write=False)
    return diag


# basis-population selectors of correlation_scan: ion up, and photon V = 1
# (P_UP on the photon) or H = 0 (P_DOWN)
_ION_UP = _frozen_diagonal(P_UP, ION)
_PHOTON_POL = (("p_up_given_V", _frozen_diagonal(P_UP, PHOTON)),
               ("p_up_given_H", _frozen_diagonal(P_DOWN, PHOTON)))


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


def _pair_amplitudes(phase: float) -> np.ndarray:
    # |H,down> and |V,up> are the basis indices 0 and 3 (ion + 2 * photon)
    return np.array([1.0, 0.0, 0.0, np.exp(1j * phase)]) / np.sqrt(2.0)


def emit_ion_photon_state(params: SourceParams) -> DensityMatrix:
    """Heralded ion-photon state of one source, photon detected.

    Polarization mixing of strength ``p`` depolarizes the photon,
    ``(1-p) rho + p (I/2 (x) Tr_photon rho)``; the ideal pair's ion marginal
    is ``I/2``, so this is ``(1-p) |psi><psi| + p I/4``.  Under sigma+
    excitation a pumping or excitation failure emits no photon, so it lowers
    the attempt success probability but does not enter the heralded state.
    """
    amps = _pair_amplitudes(params.superposition_phase)
    p = params.pol_mixing
    return DensityMatrix((1.0 - p) * np.outer(amps, amps.conj()) + 0.25 * p * np.eye(4),
                         PAIR_DIMS)


def waveplate_unitary(angle) -> np.ndarray:
    """Jones matrix of a half-wave plate with its fast axis rotated by
    ``angle``: ``R(angle) @ diag(1, -1) @ R(-angle)`` up to global phase.
    An array of angles gives the stack ``angle.shape + (2, 2)``.
    """
    c, s = np.cos(angle), np.sin(angle)
    rot = np.stack([c, -s, s, c], axis=-1).reshape(np.shape(angle) + (2, 2)).astype(complex)
    # exp(i pi) keeps its 1.2e-16 imaginary part: -1 would move scans at round-off
    return rot @ np.diag([1.0, np.exp(1j * np.pi)]) @ rot.conj().swapaxes(-1, -2)


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


# one stack per scan grid, 4 grids kept per cache: at cli.MAX_GRID_POINTS
# points a plate stack holds 25.6 MB and a rotation stack 6.4 MB
@cache_by_value(maxsize=4)
def _half_wave_stack(angles) -> np.ndarray:
    """Half-wave plate at each angle, acting on the photon of the pair."""
    return lift(waveplate_unitary(angles), PHOTON, PAIR_DIMS)


_raman_stack = cache_by_value(maxsize=4)(raman_rotation)


def correlation_scan(state: DensityMatrix, hwp_angles) -> ScanResult:
    """Conditional P(ion up | photon in V) and (... | H) vs half-wave-plate angle.

    The photon passes a half-wave plate at each angle and is then split on a
    H/V polarizer; both conditionals are fitted with period 90 degrees in the
    plate angle.  Contrast is the mean fitted peak-to-peak swing of the two
    branches, which for pure photon depolarizing of strength p equals 1 - p.
    """
    if state.dims != PAIR_DIMS:
        raise ValueError("correlation_scan expects an (ion, photon) pair state")
    angles = np.asarray(hwp_angles, dtype=float)
    pops = rotated_populations(state, _half_wave_stack(angles))
    series = {}
    for label, pol in _PHOTON_POL:
        marginal = pops @ pol
        zero = marginal < 1e-12
        joint = pops @ (_ION_UP * pol)
        series[label] = np.where(zero, np.nan, joint / np.where(zero, 1.0, marginal))
    flags = ["zero_marginal"] if any(np.isnan(v).any() for v in series.values()) else []
    k = 4.0  # period pi/2 in plate angle
    fits = {label: fit_sinusoid(angles, values, k) for label, values in series.items()}
    if any(f.degenerate for f in fits.values()):
        flags.append("fit_degenerate")
    contrast = float(np.mean([2.0 * f.amplitude for f in fits.values()]))
    return ScanResult(control=angles, series=series, fits=fits, angular_frequency=k,
                      contrast=contrast, flags=tuple(flags))


def heralded_ion_state(state: DensityMatrix, sign: int) -> DensityMatrix:
    """Ion state heralded by detecting the photon in ``(|H> + sign |V>)/sqrt2``.

    This is the diagonal-basis detection reached by a half-wave plate rotating
    the polarization by 45 degrees; for the ideal pair it yields
    ``(|down> + sign e^{i phase} |up>)/sqrt(2)``.  The ion block
    ``<d| rho |d>`` of the photon state ``d`` is normalized by its trace, the
    herald probability.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    m = state.matrix.reshape(2, 2, 2, 2)  # (photon, ion, photon, ion)
    block = 0.5 * (m[H, :, H] + m[V, :, V] + sign * (m[H, :, V] + m[V, :, H]))
    w = float(np.real(np.trace(block)))
    if w < 1e-15:
        raise ValueError("herald outcome has zero probability")
    return DensityMatrix(0.5 * (block + block.conj().T) / w, (2,))


def coherence_scan(state: DensityMatrix, analysis_phases) -> ScanResult:
    """P(up) after a pi/2 rotation of variable phase, fitted with period 2 pi.

    For the heralded superposition ``(|down> + e^{i phi}|up>)/sqrt(2)`` the
    fitted phase equals phi and the contrast (twice the fitted amplitude)
    equals the coherence magnitude, which bounds the pair fidelity from below.
    """
    if state.dims != (2,):
        raise ValueError("coherence_scan expects a single-qubit ion state")
    phases = np.asarray(analysis_phases, dtype=float)
    p_up = rotated_populations(state, _raman_stack(phases))[:, UP]
    fit = fit_sinusoid(phases, p_up, 1.0)
    flags = ("fit_degenerate",) if fit.degenerate else ()
    return ScanResult(control=phases, series={"p_up": p_up}, fits={"p_up": fit},
                      angular_frequency=1.0, contrast=2.0 * fit.amplitude, flags=flags)


def correlated_populations(state: DensityMatrix) -> float:
    """Population in the correlated branches ``|H,down>`` and ``|V,up>``."""
    if state.dims != PAIR_DIMS:
        raise ValueError("expects an (ion, photon) pair state")
    m = state.matrix
    i_hd = 0b00  # photon H, ion down
    i_vu = 0b11
    return float(np.real(m[i_hd, i_hd] + m[i_vu, i_vu]))


def fidelity_upper_bound(correlation_contrast: float) -> float:
    """Upper bound ``(1 + C)/2`` from the correlation-scan contrast."""
    return min(1.0, max(0.0, 0.5 * (1.0 + correlation_contrast)))


def fidelity_lower_bound_pair(correlated_pops: float, coherence_contrast: float) -> float:
    """Lower bound ``(populations + coherence contrast)/2``.

    Standard two-scan bound: the correlated populations cap the diagonal part
    of the overlap and the coherence contrast caps the off-diagonal part.
    The exact bound used in the modeled experiment's cited analysis is not
    restated there; this convention is documented and checked against the
    reference values as a consistency test only.
    """
    return min(1.0, max(0.0, 0.5 * (correlated_pops + coherence_contrast)))


def ion_photon_outputs(cfg: HardwareConfig, hwp_angles=None) -> dict:
    """The ``ion-photon`` run: of each source, the correlation scan over
    ``hwp_angles`` (by default 37 angles over ``[0, pi/2]``) and the
    coherence scan of its ``+1`` herald over 41 phases, as CSV tables, and
    their fits with both fidelity bounds in ``ion_photon_fits.json``."""
    if hwp_angles is None:
        hwp_angles = np.linspace(0.0, np.pi / 2.0, 37)
    phases = np.linspace(0.0, TWO_PI, 41)
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
