"""Sinusoid fits, the common scan-result container and scan grids.

All scans in this package oscillate with a period that is known a priori
(waveplate scans at four times the plate angle, analysis-phase scans at the
phase itself, parity scans at twice the phase), so a fit is linear in
``(sin, cos, 1)``: ``analysis.fit_parity_scan`` fits swap's sampled parity
scans by least squares, and every closed-form scan is built by
``exact_scan`` from its exact coefficients.  This module loads no numpy.

Fit model: ``y = offset + amplitude * sin(k * x - phase)`` with
``amplitude >= 0`` and ``phase`` in ``[0, 2*pi)``.  With this convention a
scan of an ion heralded into ``(|down> + e^{i phi}|up>)/sqrt(2)`` fits to
``phase == phi``.  ``sinusoid_fit`` builds every fit: below an amplitude of
1e-14 the phase is round-off, so it is reported as 0 and the fit as
degenerate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

from .config import TWO_PI


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


def sinusoid_fit(amplitude: float, phase: float, offset: float,
                 residual_rms: float = 0.0, degenerate: bool = False) -> SinusoidFit:
    """The fit, its phase wrapped, or 0 and degenerate below an amplitude of 1e-14."""
    if amplitude < 1e-14:
        return SinusoidFit(amplitude, 0.0, offset, residual_rms, True)
    return SinusoidFit(amplitude, wrap_phase(phase), offset, residual_rms, degenerate)


DISTINCT_TOL = 1e-7


def determines_sinusoid(x: Sequence[float], angular_frequency: float) -> bool:
    """Whether the grid ``x`` determines ``offset + A sin(k x - phase)``: some
    three of its points ``(cos kx, sin kx)``, kept in order, lie more than
    ``DISTINCT_TOL`` apart (distinct points of a circle are never collinear).
    Three points at spacing s give the ``(sin, cos, 1)`` regressors a smallest
    singular value near 0.29 s^2, below ``np.linalg.lstsq``'s rank cutoff
    (1.6e-15) under s = 7.5e-8."""
    kept = []
    for v in x:
        point = (math.cos(angular_frequency * v), math.sin(angular_frequency * v))
        if all(math.dist(point, other) > DISTINCT_TOL for other in kept):
            kept.append(point)
            if len(kept) == 3:
                return True
    return False


def linspace(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num).tolist()`` bit for bit (``num >= 2``): point
    ``k`` is ``k * step + start``, or ``k / (num-1) * delta + start`` when the
    step ``delta / (num-1)`` rounds to zero, and the last point is ``stop``."""
    div, delta = num - 1, stop - start
    step = delta / div
    if step == 0.0:
        return [k / div * delta + start for k in range(div)] + [stop]
    return [k * step + start for k in range(div)] + [stop]


@dataclass(frozen=True, eq=False)
class ScanResult:
    """Grid of a control parameter vs measured values, with sinusoid fits.

    ``series`` maps column name to the values (lists or arrays, as is
    ``control``); ``fits`` holds one fit per series.  ``contrast`` is defined
    by the producing scan (twice the fitted amplitude for probability scans,
    the amplitude itself for parity scans) and is recorded here so
    downstream bounds do not re-derive it.
    """

    control: Sequence[float]
    series: Mapping[str, Sequence[float]]
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

    def table(self) -> dict[str, list[float]]:
        """Columns of Python floats: ``control_value``, then each series."""
        return {"control_value": list(map(float, self.control)),
                **{name: list(map(float, v)) for name, v in self.series.items()}}


def exact_scan(control, k: float, columns: Mapping[str, tuple[float, float, float]],
               contrast: float) -> ScanResult:
    """The scan over ``control`` of each column ``name: (offset, amplitude,
    phase)``, with its exact fit: every fit is degenerate on a grid that does
    not determine a sinusoid at ``k``, and the scan is flagged
    ``fit_degenerate`` if any fit is.  A non-finite control raises ValueError."""
    grid = [float(x) for x in control]
    if not all(map(math.isfinite, grid)):
        raise ValueError("scan control values must be finite")
    undetermined = not determines_sinusoid(grid, k)
    series, fits = {}, {}
    for name, (offset, amplitude, phase) in columns.items():
        # sin(kx - phase) expanded, so that the phase survives at any |kx|
        a_sin, a_cos = amplitude * math.cos(phase), -amplitude * math.sin(phase)
        series[name] = [offset + a_sin * math.sin(k * x) + a_cos * math.cos(k * x)
                        for x in grid]
        fits[name] = sinusoid_fit(amplitude, phase, offset, 0.0, undetermined)
    flags = ("fit_degenerate",) if any(f.degenerate for f in fits.values()) else ()
    return ScanResult(grid, series, fits, k, contrast, flags)
