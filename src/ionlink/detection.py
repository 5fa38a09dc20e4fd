"""Fluorescence-threshold readout of one or two ions and SPAM correction.

After shelving, each ion in the fluorescing state contributes a Poisson
number of counts at ``bright_rate`` on top of a dark background; count
thresholds classify a shot as zero, one or two bright ions.  Two error
branches flip the effective number of bright ions before counting: shelving
failures make a nominally dark ion fluoresce, and fluorescence loss (fiber
coupling decay during the experiment) makes a bright ion read dark.  The
aggregate no-bright and two-bright fidelities are config inputs; per-ion flip
probabilities are derived as ``1 - sqrt(fidelity)``.

The flip and count distributions are closed forms rather than scipy.stats
calls, so importing this module loads no scipy: the binomial pmf on at most
two ions is ``comb(n, k) p^k (1-p)^(n-k)``, and the Poisson CDF is a forward
sum of ``mu^k / k!`` with ``e^-mu`` applied in factors that cannot underflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, exp, sqrt

import numpy as np


def _binom_pmf(k: int, n: int, p: float) -> float:
    return comb(n, k) * p ** k * (1.0 - p) ** (n - k)


def _poisson_cdf(t: int, mu: float) -> float:
    """P(X <= t) for X ~ Poisson(mu); e^-mu goes on in steps of at most e^-700,
    one whenever the partial sum passes 1e250 and the rest at the end."""
    if t < 0:
        return 0.0
    term = total = 1.0
    pending = mu  # exponent of e^-mu not yet applied
    for k in range(1, int(t) + 1):
        term *= mu / k
        total += term
        if total > 1e250:
            step = min(pending, 700.0)
            term, total, pending = term * exp(-step), total * exp(-step), pending - step
    while pending > 0.0:
        step = min(pending, 700.0)
        total, pending = total * exp(-step), pending - step
    return min(total, 1.0)


@dataclass(frozen=True)
class ReadoutModel:
    """Poisson count model of the shared fluorescence readout."""

    bright_rate: float = 100000.0       # counts/s per bright ion
    dark_rate: float = 1000.0           # counts/s background
    duration: float = 1e-3              # s
    shelving_fidelity: float = 0.987    # aggregate no-bright fidelity
    bright_detect_fidelity: float = 0.981  # aggregate two-bright fidelity

    def __post_init__(self):
        if self.bright_rate < 0 or self.dark_rate < 0:
            raise ValueError("rates must be nonnegative")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        for name in ("shelving_fidelity", "bright_detect_fidelity"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in (0, 1]")

    @property
    def dark_mean(self) -> float:
        return self.dark_rate * self.duration

    @property
    def bright_mean(self) -> float:
        return self.bright_rate * self.duration

    @property
    def dark_to_bright_flip(self) -> float:
        """Per-ion probability that a shelved ion fluoresces anyway."""
        return 1.0 - sqrt(self.shelving_fidelity)

    @property
    def bright_to_dark_flip(self) -> float:
        """Per-ion probability that a bright ion reads dark."""
        return 1.0 - sqrt(self.bright_detect_fidelity)


def effective_bright_probs(true_bright: int, model: ReadoutModel) -> np.ndarray:
    """P(effective bright count = k) of the two ions after both flip branches."""
    if not 0 <= true_bright <= 2:
        raise ValueError("true_bright must be in [0, 2]")
    probs = np.zeros(3)
    for lost in range(true_bright + 1):
        p_lost = _binom_pmf(lost, true_bright, model.bright_to_dark_flip)
        for gained in range(3 - true_bright):
            p_gain = _binom_pmf(gained, 2 - true_bright, model.dark_to_bright_flip)
            probs[true_bright - lost + gained] += p_lost * p_gain
    return probs


def simulate_histogram(true_bright: int, model: ReadoutModel, shots: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Photon-count histogram (bincount array) of ``shots`` readouts of a
    prepared bright count: each shot draws its effective bright count after
    both flip branches, then Poisson counts at that count's mean."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    probs = effective_bright_probs(true_bright, model)
    eff = rng.choice(len(probs), size=shots, p=probs)
    return np.bincount(rng.poisson(model.dark_mean + eff * model.bright_mean))


@dataclass(frozen=True)
class ThresholdResult:
    t1: int
    t2: int
    misclassification: float   # mean per-class error rate
    degenerate: bool = False


def classify_counts(counts, t1: int, t2: int) -> np.ndarray:
    """0 for counts <= t1, 1 for t1 < counts <= t2, else 2."""
    counts = np.asarray(counts)
    return np.where(counts <= t1, 0, np.where(counts <= t2, 1, 2))


def choose_thresholds(histograms) -> ThresholdResult:
    """Exhaustive threshold pair minimizing the mean per-class error.

    ``histograms`` are three bincount arrays for 0, 1 and 2 prepared bright
    ions.  Ties break toward the lower thresholds.  A best-case error above
    20% sets the degenerate flag (overlapping distributions).
    """
    hists = [np.asarray(h, dtype=float) for h in histograms]
    if len(hists) != 3 or any(h.sum() <= 0 for h in hists):
        raise ValueError("need three nonempty histograms (0, 1, 2 bright)")
    width = max(h.size for h in hists)
    padded = np.zeros((3, width))
    for k, h in enumerate(hists):
        padded[k, :h.size] = h / h.sum()
    c0, c1, c2 = np.cumsum(padded, axis=1)  # P(counts <= t | class)
    # Pairs in the order t1, then t2 >= t1, one row of t2 at a time so that
    # memory stays O(width).  An accepted error is below every earlier one,
    # so only a row's strict prefix-minimum records can pass the tie rule.
    best = (np.inf, 0, 0)
    for t1 in range(width):
        err = ((1.0 - c0[t1])                        # class 0 read as 1 or 2
               + (1.0 - (c1[t1:] - c1[t1]))          # class 1 outside (t1, t2]
               + c2[t1:]) / 3.0                      # class 2 read as 0 or 1
        if not err.min() < best[0] - 1e-15:
            continue
        prior = np.minimum.accumulate(err)
        for i in [0] + (np.flatnonzero(err[1:] < prior[:-1]) + 1).tolist():
            if err[i] < best[0] - 1e-15:
                best = (err[i], t1, t1 + i)
    err, t1, t2 = best
    return ThresholdResult(t1=int(t1), t2=int(t2), misclassification=float(err),
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
        if np.any(m < -1e-12) or np.any(m > 1.0 + 1e-12):
            raise ValueError("entries must be probabilities")
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
    def from_model(cls, model: ReadoutModel, t1: int, t2: int) -> "ConfusionMatrix":
        """Analytic Poisson-mixture confusion matrix at the given thresholds."""
        m = np.zeros((3, 3))
        for true in range(3):
            probs = effective_bright_probs(true, model)
            for eff, p_eff in enumerate(probs):
                mu = model.dark_mean + eff * model.bright_mean
                p0 = _poisson_cdf(t1, mu)
                p1 = _poisson_cdf(t2, mu) - p0
                m[true, 0] += p_eff * p0
                m[true, 1] += p_eff * p1
                m[true, 2] += p_eff * (1.0 - p0 - p1)
        return cls(m)


@dataclass(frozen=True, eq=False)
class SpamCorrection:
    populations: np.ndarray
    clipped_mass: float


def spam_correct(observed, cm: ConfusionMatrix) -> SpamCorrection:
    """Invert the observation map: observed = true @ M, so true = observed @ M^-1.

    The inverse can leave the probability simplex at finite statistics;
    negative components are clipped to zero and the clipped magnitude is
    reported, then the result is renormalized.
    """
    obs = np.asarray(observed, dtype=float)
    if obs.shape != (3,):
        raise ValueError("observed must be a 3-vector")
    if abs(obs.sum() - 1.0) > 1e-9:
        raise ValueError(f"observed frequencies must sum to 1, got {obs.sum()!r}")
    raw = obs @ cm.inverse
    clipped = float(-raw[raw < 0].sum()) if np.any(raw < 0) else 0.0
    corrected = np.clip(raw, 0.0, None)
    corrected = corrected / corrected.sum()
    corrected.setflags(write=False)
    return SpamCorrection(populations=corrected, clipped_mass=clipped)
