"""Closed-form attempt-loop statistics for a decaying success probability.

The per-attempt success probability decays with the attempt index ``n``
(recoil heating between recooling breaks) as ``p(n) = A exp(-B n) + C``.
Treating ``n`` as continuous, the first-success density and its integral are

    PDF(n) = exp[(A/B)(exp(-B n) - 1) - C n] (A exp(-B n) + C)
    CDF(N) = 1 - exp[(A/B)(exp(-B N) - 1) - C N]

and the average success probability of a loop capped at ``N`` attempts is

    pbar(N) = CDF(N) / (N + 1 - integral_0^N CDF(n) dn),

whose denominator equals ``1 + E[attempts consumed per request]``.  The
simulator is discrete; the O(p) gap between the discrete process and these
continuous formulas is far below every tolerance used here (p ~ 2.5e-4).

``B = 0`` reduces everything to the constant-probability (exponential /
geometric) case and is handled by the analytic limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

QUAD_REL_TOL = 1e-8


@dataclass(frozen=True)
class DecayParams:
    """Parameters of ``p(n) = a * exp(-b * n) + c``."""

    a: float
    b: float
    c: float

    def __post_init__(self):
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

    attempt_duration: float = 1e-6
    cooling_duration: float = 100e-6

    def __post_init__(self):
        if self.attempt_duration <= 0:
            raise ValueError("attempt_duration must be positive")
        if self.cooling_duration < 0:
            raise ValueError("cooling_duration must be nonnegative")


def _log_survival(n, p: DecayParams):
    """Exponent ``g(n)`` with ``survival = exp(g)``; stable for small ``b``."""
    n = np.asarray(n, dtype=float)
    if p.b == 0.0:
        return -(p.a + p.c) * n
    return p.a * np.expm1(-p.b * n) / p.b - p.c * n


def pdf(n, p: DecayParams):
    """First-success density at (continuous) attempt index ``n >= 0``."""
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < 0):
        raise ValueError("n must be nonnegative")
    out = np.exp(_log_survival(n_arr, p)) * p.probability(n_arr)
    return out if out.shape else float(out)


def cdf(n, p: DecayParams):
    """Probability of a herald within the first ``n`` attempts."""
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < 0):
        raise ValueError("n must be nonnegative")
    out = -np.expm1(_log_survival(n_arr, p))
    return out if out.shape else float(out)


def _adaptive_quad(f, a: float, b: float, rel_tol: float = QUAD_REL_TOL) -> float:
    """Single audited integration kernel: adaptive Gauss-Kronrod via QUADPACK."""
    from scipy.integrate import quad
    value, abserr = quad(f, a, b, epsabs=0.0, epsrel=rel_tol, limit=500)
    if value != 0.0 and abserr > 10.0 * rel_tol * abs(value):
        raise RuntimeError(
            f"quadrature did not reach rel tol {rel_tol:g}: "
            f"value={value:.6e}, achieved abs err={abserr:.2e}")
    return value


def expected_attempts(n: float, p: DecayParams, rel_tol: float = QUAD_REL_TOL) -> float:
    """E[attempts consumed by a loop capped at n] = integral of the survival."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 0.0
    return _adaptive_quad(lambda x: math.exp(_log_survival(x, p)), 0.0, n, rel_tol)


def mean_success_prob(n: float, p: DecayParams, rel_tol: float = QUAD_REL_TOL) -> float:
    """Average success probability ``CDF(n) / (n + 1 - integral of CDF)``.

    The denominator identity ``n + 1 - int_0^n CDF = 1 + int_0^n survival``
    is used so the quadrature integrand stays well conditioned.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    return cdf(n, p) / (1.0 + expected_attempts(n, p, rel_tol))


@dataclass(frozen=True)
class DecayFit:
    params: DecayParams
    covariance: np.ndarray | None
    b_unidentifiable: bool = False


def fit_decay(indices, probabilities, counts) -> DecayFit:
    """Weighted least squares of ``a exp(-b n) + c`` to per-index success data.

    ``counts`` are the attempts behind each empirical probability; weights are
    binomial.  Initialization: ``c`` from the tail mean, ``a`` from the head
    excess, ``b`` from a log-linear regression of the head excess.  Degenerate
    (constant) data returns ``a = 0`` with ``b`` flagged unidentifiable.
    """
    from scipy.optimize import curve_fit
    n = np.asarray(indices, dtype=float)
    y = np.asarray(probabilities, dtype=float)
    w = np.asarray(counts, dtype=float)
    if n.size < 3:
        raise ValueError("need at least 3 distinct attempt indices")
    if not (n.size == y.size == w.size):
        raise ValueError("indices, probabilities and counts must match in length")
    order = np.argsort(n)
    n, y, w = n[order], y[order], w[order]

    tail = max(1, n.size // 4)
    c0 = float(np.mean(y[-tail:]))
    head = max(2, n.size // 4)
    a0 = float(np.mean(y[:head]) - c0)
    spread = float(np.ptp(y))
    if spread < 1e-15 or a0 <= 0.0:
        c_hat = float(np.average(y, weights=w))
        return DecayFit(DecayParams(a=0.0, b=0.0, c=c_hat), covariance=None,
                        b_unidentifiable=True)
    excess = y[:head] - c0
    positive = excess > 0
    if positive.sum() >= 2:
        slope = np.polyfit(n[:head][positive], np.log(excess[positive]), 1)[0]
        b0 = max(1e-9, -float(slope))
    else:
        b0 = 1.0 / max(1.0, float(n[-1]))

    sigma = np.sqrt(np.maximum(y * (1.0 - y), 1e-12) / w)

    def model(x, a, b, c):
        return a * np.exp(-b * x) + c

    popt, pcov = curve_fit(model, n, y, p0=[a0, b0, max(c0, 1e-12)],
                           sigma=sigma, absolute_sigma=True, maxfev=20000)
    a, b, c = popt
    a = min(max(a, 0.0), 1.0)
    c = min(max(c, 1e-15), 1.0)
    if a + c > 1.0:
        a = 1.0 - c
    return DecayFit(DecayParams(a=float(a), b=float(max(b, 0.0)), c=float(c)),
                    covariance=pcov)


def expected_wall_time(n: float, p: DecayParams, schedule: ScheduleParams,
                       coolant: bool, include_cooling: bool = True) -> float:
    """Mean wall time per entanglement request at loop cap ``n`` (seconds).

    Coolant mode runs a single loop per request after one initial cooling;
    without the coolant, loops of ``n`` attempts repeat with a cooling break
    after each failure until success.  ``include_cooling=False`` removes the
    cooling contributions from the accounting (used when comparing loop-cap
    curves independently of the recooling overhead).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    q = cdf(n, p)
    e_min = expected_attempts(n, p)  # E[min(first success, n)]
    dt, dc = schedule.attempt_duration, schedule.cooling_duration
    if coolant:
        wall = e_min * dt
        if include_cooling:
            wall += dc
        return wall
    # geometric number of loops with per-loop success q
    survival = math.exp(_log_survival(n, p))
    e_attempts_success_loop = (e_min - n * survival) / q
    failed_loops = 1.0 / q - 1.0
    wall = (failed_loops * n + e_attempts_success_loop) * dt
    if include_cooling:
        wall += failed_loops * dc
    return wall


def request_rate(n: float, p: DecayParams, schedule: ScheduleParams,
                 coolant: bool, include_cooling: bool = True) -> float:
    """Successful heralds per second of wall time at loop cap ``n``.

    A coolant-mode request succeeds with probability CDF(n) in its single
    loop; without the coolant the loop repeats until success, so every
    request eventually heralds.
    """
    success_per_request = cdf(n, p) if coolant else 1.0
    return success_per_request / expected_wall_time(n, p, schedule, coolant,
                                                    include_cooling)


def optimal_cap(p: DecayParams, schedule: ScheduleParams, coolant: bool,
                max_cap: int = 100_000,
                include_cooling: bool = True) -> tuple[int, float]:
    """Integer loop cap maximizing the request rate, with the rate achieved.

    A bounded scalar search on the continuous relaxation is followed by an
    exhaustive integer scan within +-50 of the relaxed optimum (and of the
    domain boundaries, since constant-p coolant operation is monotone in the
    cap and peaks at the boundary).
    """
    from scipy.optimize import minimize_scalar
    if max_cap < 1:
        raise ValueError("max_cap must be at least 1")

    def negrate(x: float) -> float:
        return -request_rate(x, p, schedule, coolant, include_cooling)

    res = minimize_scalar(negrate, bounds=(1.0, float(max_cap)), method="bounded",
                          options={"xatol": 0.5})
    candidates = set()
    for center in (int(round(res.x)), 1, max_cap):
        for k in range(center - 50, center + 51):
            if 1 <= k <= max_cap:
                candidates.add(k)
    best_n = max(candidates,
                 key=lambda k: request_rate(k, p, schedule, coolant, include_cooling))
    return best_n, request_rate(best_n, p, schedule, coolant, include_cooling)
