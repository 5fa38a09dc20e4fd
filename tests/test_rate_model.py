import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from ionlink.config import DECAY_COOLANT_RECONSTRUCTION, HardwareConfig
from ionlink.protocol import simulate_campaign
from ionlink.rate_model import (
    DecayParams,
    _expected_attempts_table,
    ScheduleParams,
    optimal_cap,
    rate_curve,
    request_rate,
    success_cdf_table,
)
from qutil import cdf, expected_attempts, mean_success_prob, pdf

RECON = DecayParams(*DECAY_COOLANT_RECONSTRUCTION)
SCHEDULE = ScheduleParams(attempt_duration=1e-6, cooling_duration=100e-6)


def random_params(rng):
    c = rng.uniform(2e-4, 8e-4)
    a = rng.uniform(0.0, 2.0 * c)
    b = rng.uniform(3e-4, 5e-3)
    return DecayParams(a=a, b=b, c=c)


def test_pdf_constant_probability_is_exponential():
    p = DecayParams(a=0.0, b=0.0, c=2e-3)
    n = np.array([0.0, 100.0, 1000.0])
    assert np.allclose(pdf(n, p), 2e-3 * np.exp(-2e-3 * n), atol=1e-15)


def test_pdf_at_origin_is_initial_probability():
    p = DecayParams(a=1e-3, b=5e-3, c=5e-4)
    assert pdf(0.0, p) == pytest.approx(p.a + p.c, abs=1e-15)


def test_pdf_normalizes_by_quadrature():
    rng = np.random.default_rng(31)
    for _ in range(10):
        p = random_params(rng)
        total, err = quad(lambda x: pdf(x, p), 0.0, np.inf, limit=500)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_cdf_matches_quadrature_of_pdf():
    p = DecayParams(a=1.5e-3, b=2e-3, c=1e-3)
    for n in (10.0, 100.0, 1000.0, 5000.0):
        integral, _ = quad(lambda x: pdf(x, p), 0.0, n, epsabs=1e-13, limit=500)
        assert cdf(n, p) == pytest.approx(integral, abs=1e-10)


def test_cdf_basics_and_monotonicity():
    p = DecayParams(a=1e-3, b=1e-3, c=1e-3)
    assert cdf(0.0, p) == 0.0
    grid = np.linspace(0.0, 20000.0, 500)
    vals = cdf(grid, p)
    assert np.all(np.diff(vals) >= 0)
    assert vals[-1] <= 1.0
    assert cdf(1e7, p) == pytest.approx(1.0, abs=1e-12)


def test_reconstruction_anchors():
    # reconstructed defaults: >99% herald probability within 20000 attempts
    # and mean success probability at the reference 2.50(8)e-4
    assert cdf(20000.0, RECON) > 0.99
    assert mean_success_prob(20000.0, RECON) == pytest.approx(2.50e-4, abs=0.08e-4)
    assert RECON.probability(0.0) == pytest.approx(2.9e-4, abs=1e-6)


def test_continuity_at_b_zero():
    for a, c in ((1e-3, 1e-3), (5e-4, 2e-3)):
        p0 = DecayParams(a=a, b=0.0, c=c)
        p1 = DecayParams(a=a, b=1e-12, c=c)
        for n in (10.0, 1000.0, 20000.0):
            assert pdf(n, p1) == pytest.approx(pdf(n, p0), rel=1e-6)
            assert cdf(n, p1) == pytest.approx(cdf(n, p0), rel=1e-6)
        assert mean_success_prob(500.0, p1) == pytest.approx(
            mean_success_prob(500.0, p0), rel=1e-6)


def test_pdf_is_derivative_of_cdf():
    p = DecayParams(a=2e-3, b=3e-3, c=8e-4)
    h = 1e-3
    for n in np.linspace(1.0, 3000.0, 17):
        fd = (cdf(n + h, p) - cdf(n - h, p)) / (2 * h)
        assert pdf(n, p) == pytest.approx(fd, abs=1e-6)


def test_mean_success_prob_geometric_closed_form():
    # constant p: q = 1 - (1-p)^N heralds per loop and E = q/p attempts, so
    # pbar = q/E is p itself at every cap
    p_val = 2e-3
    p = DecayParams(a=0.0, b=0.0, c=p_val)
    for n in (1, 2, 10, 500, 5000, 20000, 100_000):
        q = 1.0 - (1.0 - p_val) ** n
        assert rate_curve(n, p, SCHEDULE, False).cdf == \
            pytest.approx(q, rel=1e-12)
        assert expected_attempts(n, p) == pytest.approx(q / p_val, rel=1e-12)
        assert mean_success_prob(n, p) == pytest.approx(p_val, rel=1e-12)


def test_mean_success_prob_small_cap_limit():
    # a one-attempt loop heralds with p(0) per attempt consumed: exactly the
    # herald probability 1 - (1 - p(0)) of one Bernoulli attempt, which is
    # p(0) up to the rounding of 1 - p(0)
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = random_params(rng)
        p0 = p.a + p.c
        assert mean_success_prob(1, p) == 1.0 - (1.0 - p0)
        assert mean_success_prob(1, p) == pytest.approx(p0, rel=1e-12)
    p = DecayParams(a=1e-3, b=1e-3, c=1e-3)
    assert mean_success_prob(2.0, p) == mean_success_prob(2, p)
    for bad in (0.5, 1.5, 0, -3, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            mean_success_prob(bad, p)


def test_monte_carlo_agreement_with_mean_success_prob():
    # link-protocol Monte Carlo estimator (successes / attempts consumed)
    # against the analytic pbar, five randomized parameter sets.  pbar is the
    # exact sum over the survival table the campaign samples, so only the
    # 3-sigma statistical band separates them.
    rng = np.random.default_rng(43)
    requests = 1_000_000
    for trial in range(5):
        p = random_params(rng)
        cap = int(12.0 / p.c)
        from dataclasses import replace
        cfg = replace(HardwareConfig(), decay_a=p.a, decay_b=p.b, decay_c=p.c,
                      loop_cap_no_coolant=cap)
        rep = simulate_campaign(cfg, requests, master_seed=1000 + trial)
        total_attempts = int(rep.attempts_used.sum())
        mc = rep.successes / total_attempts
        analytic = mean_success_prob(cap, p)
        sigma = np.sqrt(analytic * (1 - analytic) / total_attempts)
        assert abs(mc - analytic) < 3 * sigma


def test_optimal_cap_constant_p_is_boundary():
    p = DecayParams(a=0.0, b=0.0, c=2.5e-4)
    best, rate = optimal_cap(p, SCHEDULE, coolant=True, max_cap=20000)
    assert best == 20000
    # rate is monotone increasing in the cap for constant p
    rates = [request_rate(n, p, SCHEDULE, True) for n in (100, 1000, 20000)]
    assert rates[0] < rates[1] < rates[2]


def test_optimal_cap_interior_for_strong_decay():
    # strong decay (steady state well below the initial value) with recooling
    # overhead: a finite cap near the decay knee wins
    p = DecayParams(a=5e-3, b=1e-2, c=2e-4)
    best, best_rate = optimal_cap(p, SCHEDULE, coolant=False, max_cap=500)
    brute = max(range(1, 501),
                key=lambda n: request_rate(n, p, SCHEDULE, coolant=False))
    assert best == brute
    assert 1 < best < 500


def test_uncooled_rate_declines_past_the_loop_knee():
    # with the uncooled decay reconstruction the recooling-free rate
    # deteriorates as the loop cap grows past the recoil-decay knee
    from ionlink.config import DECAY_NO_COOLANT
    p = DecayParams(*DECAY_NO_COOLANT)
    rates = rate_curve([50, 200, 1000, 5000, 20000], p, SCHEDULE,
                       coolant=False).rate_no_cooling_hz
    assert all(b < a for a, b in zip(rates, rates[1:]))
    # the recooling-free rate is pbar(50) * 1 MHz: heralds per attempt times
    # attempts per second
    assert rates[0] == pytest.approx(mean_success_prob(50.0, p) * 1e6, rel=1e-12)
    # with the recooling breaks the early-success clustering of the decay
    # profile lands slightly above the constant-p 78/s reference arithmetic
    full = float(rate_curve(50, p, SCHEDULE, coolant=False).rate_hz)
    assert full == pytest.approx(79.5, abs=1.0)


def test_request_rate_matches_discrete_sum_oracle():
    # independent oracle: compose the rate from literal discrete products and
    # sums over whole loops instead of the per-loop rate formula
    p = DecayParams(a=5e-3, b=1e-2, c=2e-4)
    for cap in (20, 80, 300):
        n = np.arange(cap)
        probs = p.probability(n)
        survival = np.cumprod(1.0 - probs)
        q = 1.0 - survival[-1]
        e_min = 1.0 + survival[:-1].sum()  # E[min(first success, cap)]
        e_succ = (e_min - cap * survival[-1]) / q
        wall = ((1.0 / q - 1.0) * (cap * SCHEDULE.attempt_duration
                                   + SCHEDULE.cooling_duration)
                + e_succ * SCHEDULE.attempt_duration)
        oracle = 1.0 / wall
        got = request_rate(float(cap), p, SCHEDULE, coolant=False)
        assert got == pytest.approx(oracle, rel=1e-12)


def test_decay_gap_between_schedules():
    # instant decay to the steady state (b -> large) vs continuous cooling at
    # the fresh value: the cooled schedule sustains the higher rate
    decayed = DecayParams(a=1.1e-4, b=50.0, c=1.4e-4)
    cooled = DecayParams(a=0.0, b=0.0, c=2.5e-4)
    r_red = float(rate_curve(20000, decayed, SCHEDULE,
                             coolant=False).rate_no_cooling_hz)
    r_blue = float(rate_curve(20000, cooled, SCHEDULE,
                              coolant=True).rate_no_cooling_hz)
    assert r_blue > 1.5 * r_red


def test_decay_params_validation():
    with pytest.raises(ValueError):
        DecayParams(a=0.5, b=0.0, c=0.6)
    with pytest.raises(ValueError):
        DecayParams(a=0.1, b=-1.0, c=0.1)
    with pytest.raises(ValueError):
        DecayParams(a=0.1, b=0.0, c=0.0)


@pytest.mark.parametrize("abc", [(0.1, math.nan, 0.1), (0.1, math.inf, 0.1),
                                 (math.nan, 0.0, 0.1), (0.1, 0.0, math.nan),
                                 (-math.inf, 0.0, 0.1)])
def test_decay_params_must_be_finite(abc):
    # a NaN or infinite rate built a NaN table, and rate_curve returned NaN
    # rates without an error
    with pytest.raises(ValueError, match="finite"):
        DecayParams(*abc)


@pytest.mark.parametrize("durations", [{"attempt_duration": math.nan},
                                       {"attempt_duration": math.inf},
                                       {"cooling_duration": math.inf},
                                       {"cooling_duration": math.nan}])
def test_schedule_params_must_be_finite(durations):
    with pytest.raises(ValueError, match="finite"):
        replace(SCHEDULE, **durations)


def test_expected_attempts_identity():
    # sum_{k<N} S_k = E[min(first success, N)] = sum_k k pmf_k + N S_N, with
    # the survival and the pmf from literal Bernoulli products
    p = DecayParams(a=1e-3, b=2e-3, c=5e-4)
    for n in (1, 7, 300, 2000):
        survival, mean = 1.0, 0.0
        for k in range(1, n + 1):
            prob = p.a * math.exp(-p.b * (k - 1)) + p.c
            mean += k * survival * prob  # first success at attempt k
            survival *= 1.0 - prob
        assert expected_attempts(n, p) == pytest.approx(mean + n * survival,
                                                        rel=1e-12)


def test_expected_attempts_table_is_cached_and_read_only():
    # the cached prefix sums are shared by every later call, so a caller
    # must not be able to write into them
    sums = _expected_attempts_table(RECON, 20000)
    assert sums is _expected_attempts_table(RECON, 20000)
    with pytest.raises(ValueError, match="read-only"):
        sums[0] = 2.0
    assert expected_attempts(20000, RECON) == sums[-1]


def test_table_caches_keep_a_handful_of_tables():
    # a table can hold 10^7 entries (80 MB): 64 of them would keep 5 GB
    for cache in (success_cdf_table, _expected_attempts_table):
        assert cache.cache_info().maxsize == 8
