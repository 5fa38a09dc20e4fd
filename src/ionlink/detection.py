"""Fluorescence-threshold readout of one or two ions and SPAM correction.

After shelving, each ion in the fluorescing state contributes a Poisson
number of counts at ``bright_rate`` on top of a dark background; count
thresholds classify a shot as zero, one or two bright ions.  Two error
branches flip the effective number of bright ions before counting: shelving
failures make a nominally dark ion fluoresce, and fluorescence loss (fiber
coupling decay during the experiment) makes a bright ion read dark.  The
aggregate no-bright and two-bright fidelities are config inputs; per-ion flip
probabilities are derived as ``1 - sqrt(fidelity)``.

Each prepared class has one count pmf per config (``count_pmf``): the
Poisson mixture over the flip branches (Myerson et al., PRL 100, 200502
(2008)).  The calibration histograms are multinomial draws from it, and the
confusion matrix is read off its cumulative sums.  No scipy is loaded: each
Poisson row is the ratio recurrence ``mu/k`` run outward from its mode, where
every factor is at most 1, then normalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotations only: loading the readout needs no config module
    from .config import HardwareConfig


def _binom_pmf(k: int, n: int, p: float) -> float:
    return comb(n, k) * p ** k * (1.0 - p) ** (n - k)


def count_pmf(cfg: HardwareConfig) -> np.ndarray:
    """Read-only (3, N): row k is P(counts = n | k prepared bright ions) under
    the readout fields of ``cfg``.  N = two-bright mean + 12 sd + 40 drops a
    tail below 1e-33 up to the config bound of 1e4 mean counts."""
    dark_mean = cfg.dark_rate * cfg.readout_duration
    bright_mean = cfg.bright_rate * cfg.readout_duration
    mu_max = dark_mean + 2.0 * bright_mean
    k = np.arange(int(mu_max + 12.0 * sqrt(mu_max)) + 40, dtype=float)
    poisson = np.ones((3, k.size))
    for row, mu in zip(poisson, dark_mean + np.arange(3) * bright_mean):
        mode = int(mu)
        row[mode + 1:] = np.cumprod(mu / k[mode + 1:])
        row[:mode] = np.cumprod(k[mode:0:-1] / mu)[::-1]
    flips = np.array([effective_bright_probs(j, cfg) for j in range(3)])
    pmf = flips @ (poisson / poisson.sum(axis=1, keepdims=True))
    pmf.setflags(write=False)
    return pmf


def effective_bright_probs(true_bright: int, cfg: HardwareConfig) -> np.ndarray:
    """P(effective bright count = k) of the two ions after both flip branches:
    per ion, a shelved ion fluoresces with ``1 - sqrt(shelving_fidelity)`` and
    a bright ion reads dark with ``1 - sqrt(bright_detect_fidelity)``."""
    if not 0 <= true_bright <= 2:
        raise ValueError("true_bright must be in [0, 2]")
    dark_to_bright = 1.0 - sqrt(cfg.shelving_fidelity)
    bright_to_dark = 1.0 - sqrt(cfg.bright_detect_fidelity)
    probs = np.zeros(3)
    for lost in range(true_bright + 1):
        p_lost = _binom_pmf(lost, true_bright, bright_to_dark)
        for gained in range(3 - true_bright):
            p_gain = _binom_pmf(gained, 2 - true_bright, dark_to_bright)
            probs[true_bright - lost + gained] += p_lost * p_gain
    return probs


def simulate_histogram(true_bright: int, pmf: np.ndarray, shots: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Photon-count histogram (bincount array) of ``shots`` readouts of a
    prepared bright count: one multinomial draw over the class's row of
    ``pmf`` (from ``count_pmf``), which is the bincount of ``shots``
    independent single-shot draws."""
    if not (0 <= true_bright <= 2 and shots >= 1):
        raise ValueError("need true_bright in [0, 2] and at least 1 shot")
    return np.trim_zeros(rng.multinomial(shots, pmf[true_bright]), "b")


@dataclass(frozen=True)
class ThresholdResult:
    t1: int
    t2: int
    misclassification: float   # mean per-class error rate
    degenerate: bool = False


def choose_thresholds(histograms) -> ThresholdResult:
    """Threshold pair ``t1 <= t2`` minimizing the mean per-class error.

    ``histograms`` are three bincount arrays for 0, 1 and 2 prepared bright
    ions.  The error separates as ``[f(t1) + g(t2)] / 3``, so the best ``t2``
    for each ``t1`` is the minimum of ``g`` over ``t2 >= t1``, and one
    suffix-minimum pass finds the pair in O(width).  Ties, within 1e-15,
    break toward the lower thresholds.  A best-case error above 20% sets the
    degenerate flag (overlapping distributions).
    """
    hists = [np.asarray(h, dtype=float) for h in histograms]
    if len(hists) != 3 or any(h.sum() <= 0 for h in hists):
        raise ValueError("need three nonempty histograms (0, 1, 2 bright)")
    width = max(h.size for h in hists)
    padded = np.zeros((3, width))
    for k, h in enumerate(hists):
        padded[k, :h.size] = h / h.sum()
    c0, c1, c2 = np.cumsum(padded, axis=1)  # P(counts <= t | class)
    f = 1.0 - c0 + c1   # class 0 read as 1 or 2, class 1 read as 0
    g = 1.0 - c1 + c2   # class 1 read as 2, class 2 read as 0 or 1
    tail = np.minimum.accumulate(g[::-1])[::-1]   # min of g over t2 >= t1
    by_t1 = f + tail    # 3x the least error of each t1
    t1 = int(np.argmax(by_t1 <= by_t1.min() + 1e-15))
    t2 = t1 + int(np.argmax(g[t1:] <= tail[t1] + 1e-15))
    # the pair's error summed as in a direct pair loop, not as f + g: the
    # two round differently, and the reported value keeps its last digits
    err = ((1.0 - c0[t1]) + (1.0 - (c1[t2] - c1[t1])) + c2[t2]) / 3.0
    return ThresholdResult(t1=t1, t2=t2, misclassification=float(err),
                           degenerate=bool(err > 0.20))


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Row-stochastic map M[true][observed] of the bright-count readout."""

    matrix: np.ndarray
    inverse: np.ndarray   # of matrix, for spam_correct

    def __init__(self, matrix):
        m = np.array(matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("confusion matrix must be 3x3")
        if not np.all((m >= -1e-12) & (m <= 1.0 + 1e-12)):
            raise ValueError("entries must be finite probabilities")
        rows = m.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-12:
            raise ValueError(f"rows must sum to 1, got {rows}")
        if abs(np.linalg.det(m)) < 1e-12:
            raise ValueError("confusion matrix is singular")
        m.setflags(write=False)
        inv = np.linalg.inv(m)
        inv.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "inverse", inv)

    @property
    def condition_number(self) -> float:
        return float(np.linalg.cond(self.matrix))

    @classmethod
    def from_pmf(cls, pmf: np.ndarray, t1: int, t2: int) -> "ConfusionMatrix":
        """Confusion matrix of a ``count_pmf`` at the given thresholds."""
        if not 0 <= t1 <= t2:
            raise ValueError(f"thresholds must satisfy 0 <= t1 <= t2, got {t1}, {t2}")
        cdf = np.cumsum(pmf, axis=1)
        c1, c2 = cdf[:, np.minimum([t1, t2], cdf.shape[1] - 1)].T
        return cls(np.stack([c1, c2 - c1, 1.0 - c2], axis=1))


@dataclass(frozen=True, eq=False)
class SpamCorrection:
    populations: np.ndarray
    clipped_mass: float | np.ndarray   # one value per row of a stack


def spam_correct(observed, cm: ConfusionMatrix) -> SpamCorrection:
    """Invert the observation map: observed = true @ M, so true = observed @ M^-1,
    of a 3-vector or of each row of a stack ``(..., 3)``, in one product.

    The inverse can leave the probability simplex at finite statistics;
    negative components are clipped to zero and the clipped magnitude is
    reported, then each row is renormalized.
    """
    obs = np.asarray(observed, dtype=float)
    if obs.shape[-1:] != (3,):
        raise ValueError("observed must be a 3-vector or a stack of them")
    sums = obs.sum(axis=-1)
    if (abs(sums - 1.0) > 1e-9).any():
        worst = np.ravel(sums)[abs(np.ravel(sums) - 1.0).argmax()]
        raise ValueError(f"observed frequencies must sum to 1, got {worst!r}")
    raw = obs @ cm.inverse
    corrected = np.clip(raw, 0.0, None)
    corrected = corrected / corrected.sum(axis=-1, keepdims=True)
    corrected.setflags(write=False)
    return SpamCorrection(corrected, clipped_mass=np.clip(-raw, 0.0, None).sum(axis=-1))
