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
every factor is at most 1, then normalized.  The pmf, histograms and
matrices are tuples of floats and ints: no numpy loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb, fsum, prod, sqrt
from operator import mul
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # annotations only: loading the readout needs no config module
    from .config import HardwareConfig
    from .rng import Generator


def _binom_pmf(k: int, n: int, p: float) -> float:
    return comb(n, k) * p ** k * (1.0 - p) ** (n - k)


def count_pmf(cfg: HardwareConfig) -> tuple[tuple[float, ...], ...]:
    """Three rows: row k is P(counts = n | k prepared bright ions) under the
    readout fields of ``cfg``.  N = two-bright mean + 12 sd + 40 drops a tail
    below 1e-33 up to the config bound of 1e4 mean counts; each Poisson row
    is normalized by its ``math.fsum``."""
    dark_mean = cfg.dark_rate * cfg.readout_duration
    bright_mean = cfg.bright_rate * cfg.readout_duration
    mu_max = dark_mean + 2.0 * bright_mean
    size = int(mu_max + 12.0 * sqrt(mu_max)) + 40
    poisson = []
    for mu in (dark_mean + j * bright_mean for j in range(3)):
        mode = int(mu)
        row = [*accumulate((k / mu for k in range(mode, 0, -1)), mul)][::-1]
        row += accumulate((mu / k for k in range(mode + 1, size)), mul, initial=1.0)
        total = fsum(filter(None, row))  # the far tails are zeros
        poisson.append([v / total for v in row])
    return tuple(tuple(a * x + b * y + c * z for x, y, z in zip(*poisson))
                 for a, b, c in (effective_bright_probs(j, cfg) for j in range(3)))


def effective_bright_probs(true_bright: int, cfg: HardwareConfig) -> list[float]:
    """P(effective bright count = k) of the two ions after both flip branches:
    per ion, a shelved ion fluoresces with ``1 - sqrt(shelving_fidelity)`` and
    a bright ion reads dark with ``1 - sqrt(bright_detect_fidelity)``."""
    if not 0 <= true_bright <= 2:
        raise ValueError("true_bright must be in [0, 2]")
    dark_to_bright = 1.0 - sqrt(cfg.shelving_fidelity)
    bright_to_dark = 1.0 - sqrt(cfg.bright_detect_fidelity)
    probs = [0.0, 0.0, 0.0]
    for lost in range(true_bright + 1):
        p_lost = _binom_pmf(lost, true_bright, bright_to_dark)
        for gained in range(3 - true_bright):
            p_gain = _binom_pmf(gained, 2 - true_bright, dark_to_bright)
            probs[true_bright - lost + gained] += p_lost * p_gain
    return probs


def simulate_histogram(true_bright: int, pmf, shots: int, rng: Generator) -> tuple[int, ...]:
    """Photon-count histogram (counts per count value, trailing zeros
    dropped) of ``shots`` readouts of a prepared bright count: one
    multinomial draw over the class's row of ``pmf`` (from ``count_pmf``),
    which is the bincount of ``shots`` independent single-shot draws."""
    if not (0 <= true_bright <= 2 and shots >= 1):
        raise ValueError("need true_bright in [0, 2] and at least 1 shot")
    counts = rng.multinomial(shots, pmf[true_bright])
    return tuple(counts[:len(counts) - next(k for k, c in enumerate(reversed(counts)) if c)])


@dataclass(frozen=True)
class ThresholdResult:
    t1: int
    t2: int
    misclassification: float   # mean per-class error rate
    degenerate: bool = False


def choose_thresholds(histograms) -> ThresholdResult:
    """Threshold pair ``t1 <= t2`` minimizing the mean per-class error.

    ``histograms`` are three count sequences (bincounts) for 0, 1 and 2
    prepared bright ions.  The error separates as ``[f(t1) + g(t2)] / 3``,
    so the best ``t2`` for each ``t1`` is the minimum of ``g`` over
    ``t2 >= t1``, and one suffix-minimum pass finds the pair in O(width).
    Ties, within 1e-15, break toward the lower thresholds.  A best-case error
    above 20% sets the degenerate flag (overlapping distributions).
    """
    hists = [list(map(float, h)) for h in histograms]
    totals = [sum(h) for h in hists]
    if len(hists) != 3 or not all(t > 0 for t in totals):
        raise ValueError("need three nonempty histograms (0, 1, 2 bright)")
    width = max(map(len, hists))
    # P(counts <= t | class), each padded to the widest
    c0, c1, c2 = (list(accumulate([v / t for v in h] + [0.0] * (width - len(h))))
                  for h, t in zip(hists, totals))
    f = [1.0 - a + b for a, b in zip(c0, c1)]   # class 0 read as 1 or 2, class 1 read as 0
    g = [1.0 - b + c for b, c in zip(c1, c2)]   # class 1 read as 2, class 2 read as 0 or 1
    tail = list(accumulate(reversed(g), min))[::-1]   # min of g over t2 >= t1
    by_t1 = [a + b for a, b in zip(f, tail)]   # 3x the least error of each t1
    low = min(by_t1) + 1e-15
    t1 = next(t for t, v in enumerate(by_t1) if v <= low)
    t2 = next(t for t in range(t1, width) if g[t] <= tail[t1] + 1e-15)
    # the pair's error summed as in a direct pair loop, not as f + g: the
    # two round differently, and the reported value keeps its last digits
    err = ((1.0 - c0[t1]) + (1.0 - (c1[t2] - c1[t1])) + c2[t2]) / 3.0
    return ThresholdResult(t1=t1, t2=t2, misclassification=err, degenerate=err > 0.20)


def adjugate(m) -> tuple[list[list[float]], float]:
    """Adjugate and determinant of the 3x3 ``m`` (``m^-1 = adj / det``): entry
    (i, j) is the 2x2 minor of the rows and columns cyclically after j and i."""
    adj = [[m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
            - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3]
            for j in range(3)] for i in range(3)]
    return adj, fsum(m[0][k] * adj[k][0] for k in range(3))


@dataclass(frozen=True)
class ConfusionMatrix:
    """Row-stochastic map M[true][observed] of the bright-count readout (rows)."""

    matrix: tuple[tuple[float, ...], ...]
    inverse: tuple[tuple[float, ...], ...]   # of matrix, for spam_correct

    def __init__(self, matrix):
        m = tuple(tuple(float(v) for v in row) for row in matrix)
        if len(m) != 3 or any(len(row) != 3 for row in m):
            raise ValueError("confusion matrix must be 3x3")
        if not all(-1e-12 <= v <= 1.0 + 1e-12 for row in m for v in row):
            raise ValueError("entries must be finite probabilities")
        rows = [sum(row) for row in m]
        if max(abs(r - 1.0) for r in rows) > 1e-12:
            raise ValueError(f"rows must sum to 1, got {rows}")
        adj, det = adjugate(m)
        if abs(det) < 1e-12:
            raise ValueError("confusion matrix is singular")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "inverse", tuple(tuple(v / det for v in row) for row in adj))

    @property
    def condition_number(self) -> float:
        """The inf-norm condition number ``||M||_inf ||M^-1||_inf``, each norm
        the largest absolute row sum."""
        return prod(max(sum(map(abs, row)) for row in m) for m in (self.matrix, self.inverse))

    @classmethod
    def from_pmf(cls, pmf, t1: int, t2: int) -> "ConfusionMatrix":
        """Confusion matrix of a ``count_pmf`` at the given thresholds."""
        if not 0 <= t1 <= t2:
            raise ValueError(f"thresholds must satisfy 0 <= t1 <= t2, got {t1}, {t2}")
        rows = []
        for row in pmf:
            cdf = list(accumulate(row))
            c1, c2 = cdf[min(t1, len(cdf) - 1)], cdf[min(t2, len(cdf) - 1)]
            rows.append((c1, c2 - c1, 1.0 - c2))
        return cls(rows)


@dataclass(frozen=True)
class SpamCorrection:
    populations: tuple[float, float, float]
    clipped_mass: float


def spam_correct(observed, cm: ConfusionMatrix) -> SpamCorrection:
    """Invert the observation map of a 3-vector: observed = true @ M, so
    true = observed @ M^-1.

    The inverse can leave the probability simplex at finite statistics;
    negative components are clipped to zero and the clipped magnitude is
    reported, then the populations are renormalized.
    """
    obs = [float(v) for v in observed]
    if len(obs) != 3:
        raise ValueError("observed must be a 3-vector")
    if not abs(sum(obs) - 1.0) <= 1e-9:
        raise ValueError(f"observed frequencies must sum to 1, got {sum(obs)!r}")
    raw = [obs[0] * a + obs[1] * b + obs[2] * c for a, b, c in zip(*cm.inverse)]
    corrected = [max(0.0, v) for v in raw]
    total = sum(corrected)
    return SpamCorrection(tuple(v / total for v in corrected),
                          clipped_mass=sum(max(0.0, -v) for v in raw))
