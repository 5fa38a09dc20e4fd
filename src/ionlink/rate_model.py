"""Attempt-loop statistics of the discrete attempt-success model.

Attempt ``n`` of a loop (counted from 0 since the last cooling) heralds with
probability ``p(n) = A exp(-B n) + C``.  The survival ``S_k``, the chance
that the first ``k`` attempts all fail, is one cumulative product:

    S_0 = 1,    S_k = prod_{j<k} (1 - p(j)).

The campaign Monte Carlo (``protocol``) samples the first success from the
table ``1 - S_k`` that :func:`success_cdf_table` builds, and every closed
form here is an exact finite sum over the same table.  For a loop capped at
``N`` attempts:

    herald probability    q(N)    = 1 - S_N
    expected attempts     E(N)    = sum_{k<N} S_k
    mean success prob     pbar(N) = q(N) / E(N)

``pbar`` is what ``successes / attempts consumed`` estimates in the Monte
Carlo.  Without the coolant a request repeats loops until one heralds, each
failed loop followed by a cooling break; with the coolant it runs one loop
after one initial cooling.  Both give ``rate = q / (E dt + breaks dc)`` with
``breaks = 1 - q`` or ``1``.  Caps are integers; an integral float such as
``2000.0`` is accepted.

The continuous density and CDF (the attempt index treated as real), which
acceptance criterion 07 pins, live in ``tests/qutil.py`` as a reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import MAX_LOOP_CAP

_TABLE_TAIL = 1e-18  # survival below this is treated as impossible


@dataclass(frozen=True)
class DecayParams:
    """Parameters of ``p(n) = a * exp(-b * n) + c``."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.a, self.b, self.c))):
            raise ValueError(f"decay parameters must be finite, got {self!r}")
        if not 0.0 <= self.a <= 1.0:
            raise ValueError("a must be in [0, 1]")
        if self.b < 0.0:
            raise ValueError("b must be nonnegative")
        if not 0.0 < self.c <= 1.0:
            raise ValueError("c must be in (0, 1] (guarantees CDF -> 1)")
        if self.a + self.c > 1.0:
            raise ValueError("a + c must not exceed 1")

    def probability(self, n) -> np.ndarray:
        return self.a * np.exp(-self.b * np.asarray(n, dtype=float)) + self.c


@dataclass(frozen=True)
class ScheduleParams:
    """Durations entering the wall-time arithmetic."""

    attempt_duration: float
    cooling_duration: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.attempt_duration, self.cooling_duration))):
            raise ValueError(f"durations must be finite, got {self!r}")
        if self.attempt_duration <= 0:
            raise ValueError("attempt_duration must be positive")
        if self.cooling_duration < 0:
            raise ValueError("cooling_duration must be nonnegative")


@lru_cache(maxsize=8)
def success_cdf_table(p: DecayParams, cap: int) -> np.ndarray:
    """Discrete first-success CDF within one loop: F[k] = 1 - S_{k+1}.

    The table is truncated where the survival drops below the tail
    threshold; the truncation error is below 1e-18 per request.  Since
    ``p(n) >= c``, ``S_k <= (1 - c)^k``, so only the prefix that can lie
    above the tail is built.  A table can hold 10^7 entries (80 MB), and
    callers reuse only a handful of ``(p, cap)``, so few are kept.
    """
    if not 1 <= cap <= MAX_LOOP_CAP:
        raise ValueError(f"loop cap must be in [1, {MAX_LOOP_CAP}], got {cap!r}")
    # (1 - c)^reach = tail
    reach = math.log(_TABLE_TAIL) / math.log1p(-p.c) if p.c < 1.0 else 0.0
    size = min(cap, math.ceil(min(reach, cap)) + 2)
    survival = np.cumprod(1.0 - p.probability(np.arange(size, dtype=float)))
    keep = int(np.count_nonzero(survival >= _TABLE_TAIL))
    keep = max(1, min(cap, keep + 1))
    table = 1.0 - survival[:keep]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=8)
def _expected_attempts_table(p: DecayParams, cap: int) -> np.ndarray:
    """``E(k+1) = S_0 + ... + S_k`` beside ``success_cdf_table(p, cap)``;
    past a truncated table the survival is below the tail.  Kept for as
    few keys as the tables themselves."""
    table = success_cdf_table(p, cap)
    attempts = np.cumsum(np.concatenate(([1.0], 1.0 - table[:-1])))
    attempts.setflags(write=False)
    return attempts


@dataclass(frozen=True, eq=False)
class RateCurve:
    """Loop statistics at each cap of ``caps``, one array entry per cap."""

    caps: np.ndarray
    cdf: np.ndarray                 # q(N): herald probability of one loop
    mean_success_prob: np.ndarray   # q(N) / E(N)
    rate_hz: np.ndarray             # heralds per second of wall time
    rate_no_cooling_hz: np.ndarray  # the same with cooling time left out


def _loop_sums(caps, p: DecayParams):
    """Integral ``caps`` as an int array, with ``q(N)`` and ``E(N)`` at each."""
    arr = np.asarray(caps, dtype=float)
    if not (arr.size and np.all(np.isfinite(arr) & (arr >= 1)
                                & (arr == np.round(arr)))):
        raise ValueError(f"loop caps must be integers >= 1, got {caps!r}")
    arr = arr.astype(np.int64)
    cap = int(arr.max())
    table, attempts = success_cdf_table(p, cap), _expected_attempts_table(p, cap)
    at = np.minimum(arr, table.size) - 1
    return arr, table[at], attempts[at]


def rate_curve(caps, p: DecayParams, schedule: ScheduleParams,
               coolant: bool) -> RateCurve:
    """Closed-form loop statistics and request rates at integral ``caps``."""
    caps, q, e = _loop_sums(caps, p)
    attempt_time = e * schedule.attempt_duration
    breaks = 1.0 if coolant else 1.0 - q
    return RateCurve(caps=caps, cdf=q, mean_success_prob=q / e,
                     rate_hz=q / (attempt_time + breaks * schedule.cooling_duration),
                     rate_no_cooling_hz=q / attempt_time)


def request_rate(n, p: DecayParams, schedule: ScheduleParams,
                 coolant: bool) -> float:
    """Successful heralds per second of wall time at loop cap ``n``."""
    return float(rate_curve(n, p, schedule, coolant).rate_hz)


def optimal_cap(p: DecayParams, schedule: ScheduleParams, coolant: bool,
                max_cap: int = 100_000) -> tuple[int, float]:
    """Integer loop cap in ``[1, max_cap]`` maximizing the request rate (the
    smallest such cap), with the rate achieved."""
    rates = rate_curve(np.arange(1, max_cap + 1), p, schedule, coolant).rate_hz
    best = int(np.argmax(rates))
    return best + 1, float(rates[best])
