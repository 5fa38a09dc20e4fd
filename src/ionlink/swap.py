"""Bell-state-analyzer heralding and the heralded two-ion state.

Photon interference is modeled at the outcome-distribution level: the fiber
beamsplitter erases which-path information, and a coincidence of one H and one
V detection projects the photon pair onto one of the two polarization Bell
states ``(|HV> +/- |VH>)/sqrt(2)`` - same-side coincidences onto the symmetric
combination, opposite-side onto the antisymmetric one.  HH and VV patterns
herald nothing.  The absolute sign assignment (same side -> +1) is a
documented convention; the experiment fixes only the relative rule.  The
heralded state is computed on the two ions alone, as the partial inner
product of the two emitted ion-photon pairs with that photon Bell state, so
the four-qubit register (ion A, photon A, ion B, photon B) is never formed.

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
from .fitting import wrap_phase
from .ion_photon import SourceParams, emit_ion_photon_state
from .quantum import DensityMatrix, PureState, superposition

TWO_PI = 2.0 * np.pi

TWO_ION_DIMS = (2, 2)

DOWN, UP = 0, 1


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


@lru_cache(maxsize=8)
def _emitted_pairs(source_a: SourceParams, source_b: SourceParams) -> np.ndarray:
    """Read-only stack of both sources' emitted pair states, each as the
    tensor ``[photon, ion, photon', ion']``.

    One set of photon outcomes heralds either sign, so both signs of a config
    share these pairs; the sources are the orientation-adjusted ones.
    """
    pairs = np.stack([emit_ion_photon_state(src).matrix.reshape(2, 2, 2, 2)
                      for src in (source_a, source_b)])
    pairs.setflags(write=False)
    return pairs


# two-ion register index ion A + 2 ion B: the free-evolution phase
# exponent of each level, and the elements whose ion-A levels differ
_ION_A, _ION_B = np.divmod(np.arange(4), 2)[::-1]
_EVOLUTION = (_ION_A - _ION_B)[:, None] - (_ION_A - _ION_B)[None, :]
_A_FLIPS = _ION_A[:, None] != _ION_A[None, :]


def swapped_state(cfg: HardwareConfig, sign: int, t: float) -> DensityMatrix:
    """Two-ion state heralded by an H+V coincidence, ``t`` seconds afterwards.

    Composition: each source of ``cfg`` emits its (possibly
    polarization-mixed) pair, and the ions keep the photon-Bell partial inner
    product ``<Psi^sign| rho_A (x) rho_B |Psi^sign>`` of the two pairs,
    normalized.  Then, elementwise, the free evolution adds the phase
    ``delta * t`` between ``|up,down>`` and ``|down,up>``, the coherences
    between ion-A levels are scaled by ``cfg.herald_coherence(t)`` (pair
    dephasing times wavepacket overlap), and the dark-count and
    double-excitation heralds mix in ``I/4`` with
    ``cfg.mixed_herald_weight()``.  With all errors off and
    ``delta*t + phi = 0 (mod 2*pi)`` the result is exactly the odd Bell state
    of the given sign.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    orientation = 1.0 if cfg.swap_phase_convention == "a_minus_b" else -1.0
    pair_a, pair_b = _emitted_pairs(*(replace(
        src, superposition_phase=wrap_phase(orientation * src.superposition_phase))
        for src in (cfg.source_a(), cfg.source_b())))
    # real photon Bell amplitudes psi[photon A, photon B], H = 0 and V = 1
    psi = np.array([[0.0, 1.0], [float(sign), 0.0]]) / np.sqrt(2.0)
    ions = np.einsum("ab,cd,aicj,bkdl->kilj", psi, psi, pair_a, pair_b).reshape(4, 4)
    w = float(np.real(np.trace(ions)))
    if w < 1e-15:
        raise ValueError("herald outcome has zero probability")
    ions = 0.5 * (ions + ions.conj().T) / w
    ions = ions * np.exp(0.5j * cfg.delta * t * _EVOLUTION)
    ions = np.where(_A_FLIPS, cfg.herald_coherence(t) * ions, ions)
    w_mixed = cfg.mixed_herald_weight()
    return DensityMatrix((1.0 - w_mixed) * ions + w_mixed * np.eye(4) / 4.0, TWO_ION_DIMS)


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
