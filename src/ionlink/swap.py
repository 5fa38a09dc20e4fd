"""Bell-state-analyzer heralding and the heralded two-ion state.

Photon interference is modeled at the outcome-distribution level: the fiber
beamsplitter erases which-path information, and a coincidence of one H and one
V detection projects the photon pair onto one of the two polarization Bell
states ``(|HV> +/- |VH>)/sqrt(2)`` - same-side coincidences onto the symmetric
combination, opposite-side onto the antisymmetric one.  HH and VV patterns
herald nothing.  The absolute sign assignment (same side -> +1) is a
documented convention; the experiment fixes only the relative rule.

Phase bookkeeping: projecting two ideal pairs onto the photon Bell states
leaves the ions in ``(|down,up> + sign e^{i phi}|up,down>)/sqrt(2)``, where
``phi`` is a difference of the two source phases whose sign depends on where
the V-branch phase of each source is referenced.  The reference two-ion form uses
``phi = phi_B - phi_A`` while the single-ion coherence scans fit ``+phi_j``
per source; these two conventions cannot be derived from each other without
unstated reference choices, so ``HardwareConfig.swap_phase_convention``
selects the orientation (default ``"b_minus_a"``, the reference form), and the
state construction applies it consistently.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .config import HardwareConfig
from .ion_photon import SourceParams, emit_ion_photon_state
from .quantum import (
    DensityMatrix,
    PureState,
    apply_channel,
    apply_unitary,
    dephasing_channel,
    partial_trace,
    superposition,
    tensor,
)

TWO_PI = 2.0 * np.pi

# full register: (ion A, photon A, ion B, photon B)
FULL_DIMS = (2, 2, 2, 2)
ION_A, PHOTON_A, ION_B, PHOTON_B = range(4)
TWO_ION_DIMS = (2, 2)

DOWN, UP = 0, 1
H, V = 0, 1


def success_probability(eta_a: float, eta_b: float) -> float:
    """Per-attempt herald probability ``eta_a * eta_b / 2``.

    The factor 1/2 is the fraction of photon Bell states the analyzer heralds.
    """
    if not (0.0 <= eta_a <= 1.0 and 0.0 <= eta_b <= 1.0):
        raise ValueError("efficiencies must be in [0, 1]")
    return 0.5 * eta_a * eta_b


def bell_phase(delta: float, t: float, phase: float) -> float:
    """Accumulated superposition phase ``(delta*t + phase) mod 2*pi``."""
    return float((delta * t + phase) % TWO_PI)


def phase_alignment_delay(delta: float, phase: float, target: float = 0.0) -> float:
    """Smallest ``t >= 0`` with ``(delta*t + phase) mod 2*pi == target``.

    Raises ValueError when ``delta == 0`` and the phases cannot be aligned.
    Note: evaluating this with the reference source phases and frequency
    difference gives 731 us, not the reference 210 us wait; the discrepancy is a
    phase-convention ambiguity and ``target=pi`` (which swaps the herald
    signs) reproduces that wait to within a few percent.
    """
    residual = (target - phase) % TWO_PI
    if residual < 1e-15 or TWO_PI - residual < 1e-15:
        return 0.0
    if delta == 0.0:
        raise ValueError("delta is zero and phase is not already aligned")
    if delta < 0.0:
        residual = residual - TWO_PI
    return float(residual / delta)


def bell_state(sign: int, phase: float = 0.0) -> PureState:
    """``(|down,up> + sign e^{i phase} |up,down>)/sqrt(2)`` on (ion A, ion B)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    return superposition(
        [(1.0, (DOWN, UP)), (sign * np.exp(1j * phase), (UP, DOWN))], TWO_ION_DIMS)


@lru_cache(maxsize=2)
def _photon_bell_herald_projector(sign: int) -> np.ndarray:
    """Read-only projector onto (photons in Psi^sign) x (identity on both ions)."""
    proj = np.zeros((16, 16), dtype=complex)
    for a in (DOWN, UP):
        for b in (DOWN, UP):
            v = superposition([(1.0, (a, H, b, V)), (float(sign), (a, V, b, H))],
                              FULL_DIMS).amplitudes
            proj += np.outer(v, v.conj())
    proj.setflags(write=False)
    return proj


@lru_cache(maxsize=8)
def _emitted_pairs(source_a: SourceParams, source_b: SourceParams) -> DensityMatrix:
    """Read-only product of both sources' emitted pairs on the full register.

    One set of photon outcomes heralds either sign, so both signs of a config
    share this state; the sources are the orientation-adjusted ones.
    """
    return tensor(emit_ion_photon_state(source_a), emit_ion_photon_state(source_b))


def swapped_state(cfg: HardwareConfig, sign: int, t: float) -> DensityMatrix:
    """Two-ion state heralded by an H+V coincidence, ``t`` seconds afterwards.

    Composition: each source of ``cfg`` emits its (possibly
    polarization-mixed) pair, the photons are projected onto the heralded Bell
    state, the photons are traced out, and then, in order, the free-evolution
    phase ``delta * t``, the pair dephasing at the configured envelope, the
    wavepacket-overlap coherence scaling and the incoherent dark-count /
    double-excitation admixtures are applied.  With all errors off and ``delta*t + phi = 0 (mod 2*pi)`` the
    result is exactly the odd Bell state of the given sign.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    orientation = 1.0 if cfg.swap_phase_convention == "a_minus_b" else -1.0
    full = _emitted_pairs(*(replace(
        src, superposition_phase=(orientation * src.superposition_phase) % TWO_PI)
        for src in (cfg.source_a(), cfg.source_b())))
    proj = _photon_bell_herald_projector(sign)
    weighted = proj @ full.matrix @ proj
    w = float(np.real(np.trace(weighted)))
    if w < 1e-15:
        raise ValueError("herald outcome has zero probability")
    heralded = DensityMatrix(0.5 * (weighted + weighted.conj().T) / w, FULL_DIMS)
    ions = partial_trace(heralded, keep=[ION_A, ION_B])

    # free evolution: relative phase delta*t on |up,down> vs |down,up>
    half = 0.5 * cfg.delta * t
    u = np.kron(np.diag([1.0, np.exp(-1j * half)]),    # ion B (high bits)
                np.diag([1.0, np.exp(+1j * half)]))    # ion A (low bits)
    ions = apply_unitary(ions, u)

    # pair dephasing: differential phase noise at the configured envelope
    gamma = cfg.bell_coherence_factor(t)
    if gamma < 1.0:
        ions = apply_channel(ions, dephasing_channel(gamma).on_subsystem(0, TWO_ION_DIMS))
    # finite wavepacket overlap scales the interference coherence
    if cfg.temporal_overlap < 1.0:
        ions = apply_channel(
            ions, dephasing_channel(cfg.temporal_overlap).on_subsystem(0, TWO_ION_DIMS))

    # incoherent admixtures: a fake herald carries no ion correlation
    mat = ions.matrix.copy()
    w_dark = cfg.dark_herald_weight()
    if w_dark > 0.0:
        mat = (1.0 - w_dark) * mat + w_dark * np.eye(4) / 4.0
    if cfg.double_excitation_prob > 0.0:
        w_x = cfg.double_excitation_prob
        mat = (1.0 - w_x) * mat + w_x * np.eye(4) / 4.0
    return DensityMatrix(mat, TWO_ION_DIMS)


def swapped_state_from_config(cfg: HardwareConfig, sign: int = +1,
                              t: float | None = None) -> DensityMatrix:
    """Heralded two-ion state at the configured analysis delay."""
    if t is None:
        t = cfg.analysis_delay
    return swapped_state(cfg, sign, t)


def aligned_state_from_config(cfg: HardwareConfig, sign: int = +1) -> DensityMatrix:
    """Heralded state analyzed at the phase-alignment delay for its sign.

    Waiting until ``delta*t + phi = 0 (mod 2*pi)`` turns a +1 herald into the
    plus Bell state; a -1 herald needs ``delta*t + phi = pi``, which absorbs
    the sign, so both heralds are analyzed as ``|Psi+>``.
    """
    target = 0.0 if sign == +1 else np.pi
    t = phase_alignment_delay(cfg.delta, cfg.swap_phase(), target=target)
    return swapped_state_from_config(cfg, sign=sign, t=t)


@dataclass(frozen=True)
class HeraldStats:
    """Tallies from attempt-level herald sampling."""

    attempts: int
    heralds: int
    plus_signs: int

    @property
    def herald_fraction(self) -> float:
        return self.heralds / self.attempts if self.attempts else 0.0


def simulate_heralds(eta_a: float, eta_b: float, attempts: int,
                     rng: np.random.Generator, chunk: int = 1_000_000) -> HeraldStats:
    """Monte Carlo of the attempt loop at the detection-outcome level.

    Each attempt collects a photon from each source independently; on a
    coincidence, the photon polarizations are uniform (each source's photon
    marginal is maximally mixed), so half the coincidences give the H+V
    patterns that herald, with the two signs equally likely.
    """
    if attempts < 1:
        raise ValueError("attempts must be at least 1")
    heralds = 0
    plus = 0
    remaining = attempts
    while remaining > 0:
        n = min(chunk, remaining)
        remaining -= n
        coincidence = (rng.random(n) < eta_a) & (rng.random(n) < eta_b)
        k = int(coincidence.sum())
        if k == 0:
            continue
        is_herald = rng.random(k) < 0.5
        h = int(is_herald.sum())
        heralds += h
        plus += int((rng.random(h) < 0.5).sum())
    return HeraldStats(attempts=attempts, heralds=heralds, plus_signs=plus)
