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
experiment fixes only the relative rule.  Each source emits
``(1-p) |psi><psi| + p I/4``, so the heralded two-ion state is a Werner-type X
matrix (Werner, PRA 40, 4277 (1989)), held as its two numbers in an
``XState``; numpy loads only when its ``matrix`` is read.  The four-qubit
register (ion A, photon A, ion B, photon B), its projection and partial trace
live in ``tests/qutil.py`` as the reference the tests compare against.

Phase bookkeeping: projecting two ideal pairs onto the photon Bell states
leaves the ions in ``(|down,up> + sign e^{i phi}|up,down>)/sqrt(2)``, where
``phi`` is a difference of the two source phases whose sign depends on where
the V-branch phase of each source is referenced.  The reference two-ion form uses
``phi = phi_B - phi_A`` while the single-ion coherence scans fit ``+phi_j``
per source; these two conventions cannot be derived from each other without
unstated reference choices, so the model takes the reference form, and
``HardwareConfig.swap_phase`` alone applies it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

from .config import TWO_PI, HardwareConfig

TWO_ION_DIMS = (2, 2)


@dataclass(frozen=True)
class XState:
    """The two-ion X state ``(1-w) rho_Bell + w I/4`` of a herald: in the
    register basis (index ion A + 2 * ion B) ``rho00 = rho33 = w/4``,
    ``rho11 = rho22 = 1/2 - w/4`` and ``rho12 = c``, ``rho21 = c*``, with
    ``mixing`` w and ``coherence`` c."""

    mixing: float
    coherence: complex
    dims: ClassVar[tuple[int, ...]] = TWO_ION_DIMS

    def __post_init__(self):  # PSD iff 0 <= w <= 1 and |c| <= rho11 = 1/2 - w/4
        if not (0.0 <= self.mixing <= 1.0
                and abs(self.coherence) <= 0.5 - 0.25 * self.mixing + 1e-12):
            raise ValueError(f"not a density matrix: w = {self.mixing!r}, c = {self.coherence!r}")

    @cached_property
    def matrix(self):
        """The read-only, validated density matrix, built (loading numpy) on first read."""
        import numpy as np

        from .quantum import DensityMatrix
        w, c = self.mixing, self.coherence
        mat = np.diag([0.25 * w, 0.5 - 0.25 * w, 0.5 - 0.25 * w, 0.25 * w]).astype(complex)
        mat[1, 2], mat[2, 1] = c, c.conjugate()
        return DensityMatrix(mat, TWO_ION_DIMS).matrix


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
    t = residual / delta
    if math.isinf(t):
        raise ValueError(f"delta {delta!r} rad/s is too small to align the phases")
    return t


def swapped_state(cfg: HardwareConfig, sign: int, t: float) -> XState:
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
    # |up,down><down,up| (register index ion A + 2 * ion B)
    return XState(w, 0.5 * (1.0 - w) * sign * cfg.herald_coherence(t)
                  * cmath.exp(1j * (cfg.swap_phase() + cfg.delta * t)))


def alignment_wait(cfg: HardwareConfig, sign: int) -> float:
    """Phase-alignment delay after a herald of the given sign, in seconds.

    Waiting until ``delta*t + phi = 0 (mod 2*pi)`` turns a +1 herald into the
    plus Bell state; a -1 herald needs ``delta*t + phi = pi``, which absorbs
    the sign, so both heralds are analyzed as ``|Psi+>``.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    target = 0.0 if sign == +1 else math.pi
    return phase_alignment_delay(cfg.delta, cfg.swap_phase(), target=target)


def aligned_state_from_config(cfg: HardwareConfig, sign: int = +1) -> XState:
    """Heralded state analyzed after ``alignment_wait`` for its sign."""
    return swapped_state(cfg, sign, alignment_wait(cfg, sign))
