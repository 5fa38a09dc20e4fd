"""Sinusoid fitting and the common scan-result container.

All scans in this package oscillate with a period that is known a priori
(waveplate scans at four times the plate angle, analysis-phase scans at the
phase itself, parity scans at twice the phase), so fits are plain linear least
squares on ``(cos, sin, 1)`` regressors; no iterative optimizer is involved.

Fit model: ``y = offset + amplitude * sin(k * x - phase)`` with
``amplitude >= 0`` and ``phase`` in ``[0, 2*pi)``.  With this convention a
scan of an ion heralded into ``(|down> + e^{i phi}|up>)/sqrt(2)`` fits to
``phase == phi``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Mapping

import numpy as np

from .config import TWO_PI
from .quantum import cache_by_value


@dataclass(frozen=True)
class SinusoidFit:
    amplitude: float
    phase: float
    offset: float
    residual_rms: float
    degenerate: bool = False


def wrap_phase(phase: float) -> float:
    """``phase mod 2*pi`` in ``[0, 2*pi)``: a tiny negative phase, whose
    remainder rounds to 2*pi, wraps to 0.  A non-finite phase raises
    ValueError."""
    phase = float(phase)
    if not math.isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase!r}")
    wrapped = phase % TWO_PI
    return wrapped if wrapped < TWO_PI else 0.0


@cache_by_value(maxsize=8)
def _solver(x, angular_frequency) -> tuple[np.ndarray, np.ndarray, int]:
    """``(sin, cos, 1)`` regressors with their pseudo-inverse and rank,
    built once per grid and frequency (8 kept: 4.8 MB each at
    ``cli.MAX_GRID_POINTS`` points).  Singular values up to ``eps * n`` times
    the largest count as zero, the cutoff of ``np.linalg.lstsq``, so the
    product with ``y`` is its minimum-norm solution."""
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


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Grid of a control parameter vs measured values, with sinusoid fits.

    ``series`` maps column name to the measured values; ``fits`` holds one
    fit per series.  ``contrast`` is defined by the producing scan (twice the
    fitted amplitude for probability scans, the amplitude itself for parity
    scans) and is recorded here so downstream bounds do not re-derive it.
    """

    control: np.ndarray
    series: Mapping[str, np.ndarray]
    fits: Mapping[str, SinusoidFit]
    angular_frequency: float
    contrast: float
    flags: tuple[str, ...] = ()

    def fit_summary(self) -> dict:
        return {
            "angular_frequency": self.angular_frequency,
            "contrast": self.contrast,
            "flags": list(self.flags),
            "fits": {name: asdict(f) for name, f in self.fits.items()},
        }

    def table(self) -> tuple[list[str], zip]:
        """``(columns, rows)``: per control value, the value then each series."""
        return (["control_value", *self.series],
                zip(self.control.tolist(), *(v.tolist() for v in self.series.values())))
