"""Bell-state-analyzer heralding and the heralded two-ion state.

Photon interference is modeled at the outcome-distribution level: the fiber
beamsplitter erases which-path information, and a coincidence of one H and one
V detection projects the photon pair onto one of the two polarization Bell
states ``(|HV> +/- |VH>)/sqrt(2)`` - same-side coincidences onto the symmetric
combination, opposite-side onto the antisymmetric one.  HH and VV patterns
herald nothing, so an attempt heralds with probability ``eta_A eta_B / 2``
(``HardwareConfig.herald_probability``), either sign equally likely; the
campaign Monte Carlo (``protocol``) samples the heralds and their signs.  The
absolute sign assignment (same side -> +1) is a documented convention; the
experiment fixes only the relative rule.  Each
source emits ``(1-p) |psi><psi| + p I/4``, so the heralded two-ion state is a
Werner-type X matrix (Werner, PRA 40, 4277 (1989)) and is written down in
closed form; the four-qubit register (ion A, photon A, ion B, photon B), its
projection and partial trace live in ``tests/qutil.py`` as the reference the
tests compare against.

Phase bookkeeping: projecting two ideal pairs onto the photon Bell states
leaves the ions in ``(|down,up> + sign e^{i phi}|up,down>)/sqrt(2)``, where
``phi`` is a difference of the two source phases whose sign depends on where
the V-branch phase of each source is referenced.  The reference two-ion form uses
``phi = phi_B - phi_A`` while the single-ion coherence scans fit ``+phi_j``
per source; these two conventions cannot be derived from each other without
unstated reference choices, so ``HardwareConfig.swap_phase_convention``
selects the orientation (default ``"b_minus_a"``, the reference form), and
``HardwareConfig.swap_phase`` alone applies it.
"""

from __future__ import annotations

import math

import numpy as np

from .config import HardwareConfig
from .quantum import DensityMatrix, PureState, superposition

TWO_PI = 2.0 * np.pi

TWO_ION_DIMS = (2, 2)

DOWN, UP = 0, 1


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
    t = float(residual / delta)
    if np.isinf(t):
        raise ValueError(f"delta {delta!r} rad/s is too small to align the phases")
    return t


def bell_state(sign: int, phase: float = 0.0) -> PureState:
    """``(|down,up> + sign e^{i phase} |up,down>)/sqrt(2)`` on (ion A, ion B)."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if not math.isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase!r}")
    return superposition(
        [(1.0, (DOWN, UP)), (sign * np.exp(1j * phase), (UP, DOWN))], TWO_ION_DIMS)


def swapped_state(cfg: HardwareConfig, sign: int, t: float) -> DensityMatrix:
    """Two-ion state heralded by an H+V coincidence, ``t`` seconds afterwards.

    Each source emits ``(1-p) |psi><psi| + p I/4``, so the photon-Bell
    projection of the two pairs leaves the ions in the Werner-type X matrix
    ``(1-w) rho_Bell + w I/4``.  The ``I/4`` weight ``w`` joins both sources'
    polarization mixing (``cfg.polarization_weight()``) with the dark-count
    and double-excitation heralds (``cfg.mixed_herald_weight()``).  The odd
    coherence carries the sign, the free-evolution phase ``delta * t`` on top
    of ``cfg.swap_phase()``, and the scale ``cfg.herald_coherence(t)`` (pair
    dephasing times wavepacket overlap).  With all errors off and
    ``delta*t + phi = 0 (mod 2*pi)`` the result is exactly the odd Bell state
    of the given sign.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    w = 1.0 - (1.0 - cfg.polarization_weight()) * (1.0 - cfg.mixed_herald_weight())
    rho = np.diag([0.25 * w, 0.5 - 0.25 * w, 0.5 - 0.25 * w, 0.25 * w]).astype(complex)
    # |up,down><down,up| and its conjugate (register index ion A + 2 * ion B)
    rho[1, 2] = (0.5 * (1.0 - w) * sign * cfg.herald_coherence(t)
                 * np.exp(1j * (cfg.swap_phase() + cfg.delta * t)))
    rho[2, 1] = np.conj(rho[1, 2])
    return DensityMatrix(rho, TWO_ION_DIMS)


def alignment_wait(cfg: HardwareConfig, sign: int) -> float:
    """Phase-alignment delay after a herald of the given sign, in seconds.

    Waiting until ``delta*t + phi = 0 (mod 2*pi)`` turns a +1 herald into the
    plus Bell state; a -1 herald needs ``delta*t + phi = pi``, which absorbs
    the sign, so both heralds are analyzed as ``|Psi+>``.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    target = 0.0 if sign == +1 else np.pi
    return phase_alignment_delay(cfg.delta, cfg.swap_phase(), target=target)


def aligned_state_from_config(cfg: HardwareConfig, sign: int = +1) -> DensityMatrix:
    """Heralded state analyzed after ``alignment_wait`` for its sign."""
    return swapped_state(cfg, sign, alignment_wait(cfg, sign))
