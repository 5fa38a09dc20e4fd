"""The generator of ``swap``: its uniforms are ``random.Random``'s, and its
binomial and multinomial samplers, fed numpy's doubles, draw what
``np.random.default_rng`` draws, bit for bit."""

import random

import numpy as np
import pytest
from scipy.stats import binom, chisquare

from ionlink.config import MAX_READOUT_COUNTS, HardwareConfig
from ionlink.detection import count_pmf
from ionlink.rng import Generator

SEEDS = [0, 1, 2**31 - 1, 2**64 + 1, 2**200]
# the readout at its default and with the two-bright mean at the config bound
BOUND = HardwareConfig(dark_rate=1.0e6, bright_rate=4.5e6, readout_duration=1.0e-3)


def _fed_numpy(seed):
    """A Generator whose uniforms are ``np.random.default_rng(seed)``'s doubles."""
    g = Generator(seed)
    g.random = np.random.default_rng(seed).random
    return g


def _pair(seed):
    return _fed_numpy(seed), np.random.default_rng(seed)


@pytest.mark.parametrize("seed", SEEDS + [2**32, 2**128 - 1, 12345])
def test_stdlib_doubles(seed):
    # the uniforms are random.Random(seed)'s
    ours, theirs = Generator(seed), random.Random(seed)
    assert [ours.random() for _ in range(200)] == [theirs.random() for _ in range(200)]


# (n, p): the early returns, inversion (min(p, 1-p) n <= 30) and BTPE, each
# side of p = 1/2
BINOMIAL_CASES = [(0, 0.3), (0, 1.0), (10, 0.0), (10, 1.0), (1, 0.5), (7, 0.5),
                  (60, 0.5), (61, 0.5), (100, 0.3), (100, 0.7), (1000, 0.01), (1000, 0.99),
                  (1000, 0.0301), (20000, 0.4), (20000, 0.6), (10**7, 0.5),
                  (10**7, 1e-9), (10**7, 1.0 - 1e-9), (2000, 0.25), (2000, 0.75)]


@pytest.mark.parametrize("seed", SEEDS)
def test_binomial_equals_numpy(seed):
    ours, theirs = _pair(seed)
    for n, p in BINOMIAL_CASES * 20:
        assert ours.binomial(n, p) == theirs.binomial(n, p), (n, p)
    # the two streams stay in step
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("seed", SEEDS)
def test_binomial_equals_numpy_across_p(seed):
    ours, theirs = _pair(seed)
    for p in np.linspace(0.01, 0.99, 99):
        for n in (5, 50, 500, 5000, 500_000):
            assert ours.binomial(n, float(p)) == theirs.binomial(n, p), (n, p)


MULTINOMIAL_CASES = [
    (100, [0.2, 0.0, 0.5, 0.0, 0.3]),      # zero entries
    (5, [0.9, 0.1, 0.0, 0.0, 0.0, 0.0]),   # early stop before the trailing zeros
    (0, [0.5, 0.5]),
    (20000, [1.0, 0.0, 0.0]),
    (20000, [0.0, 0.0, 1.0]),
    (10**6, [0.25, 0.5, 0.25]),
    (7, [1.0 / 3.0] * 3),
]


@pytest.mark.parametrize("seed", SEEDS)
def test_multinomial_equals_numpy(seed):
    ours, theirs = _pair(seed)
    for n, pvals in MULTINOMIAL_CASES:
        assert ours.multinomial(n, pvals) == theirs.multinomial(n, pvals).tolist(), (n, pvals)
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("cfg", [HardwareConfig(), BOUND], ids=["default", "bound"])
@pytest.mark.parametrize("seed", SEEDS)
def test_multinomial_of_each_count_pmf_row_equals_numpy(cfg, seed):
    pmf = count_pmf(cfg)
    ours, theirs = _pair(seed)
    for row in pmf:
        assert ours.multinomial(20000, row) == theirs.multinomial(20000, row).tolist()
    assert ours.random() == theirs.random()


def test_bound_config_reaches_max_readout_counts():
    assert (BOUND.dark_rate + 2.0 * BOUND.bright_rate) * BOUND.readout_duration \
        == MAX_READOUT_COUNTS
    assert len(count_pmf(BOUND)[0]) > 11000


def test_multinomial_rejects_what_numpy_rejects():
    pvals = [0.5, 0.5 + 2e-12, 0.0]  # pvals[:-1] sums past 1 + 1e-12
    with pytest.raises(ValueError, match="sum"):
        np.random.default_rng(0).multinomial(10, pvals)
    with pytest.raises(ValueError, match="sum"):
        Generator(0).multinomial(10, pvals)
    # inside the tolerance both draw
    within = [0.5, 0.5 + 5e-13, 0.0]
    assert _fed_numpy(0).multinomial(10, within) == \
        np.random.default_rng(0).multinomial(10, within).tolist()
    for bad in ([0.5, -0.1, 0.6], [0.5, float("nan"), 0.5], [1.5, 0.0, 0.0]):
        with pytest.raises(ValueError):
            np.random.default_rng(0).multinomial(10, bad)
        with pytest.raises(ValueError):
            Generator(0).multinomial(10, bad)


def test_uniforms_are_the_c_method():
    assert Generator.random is random.Random.random


@pytest.mark.parametrize("seed", [-5, -1, True, False, 5.0, "5", None])
def test_rejects_a_negative_bool_or_non_integer_seed(seed):
    # random.seed would draw seed 5's stream for -5, and seed 1's for True
    with pytest.raises(ValueError, match="non-negative integer"):
        Generator(seed)


# Chi-square tests of the production stream, seeds and pass band fixed in
# advance: bins of fewer than 5 expected draws are pooled with their
# neighbours, and each test passes at p > 1e-3.
P_MIN = 1e-3


def _chi2_p(observed, expected) -> float:
    obs, exp, pooled = [], [], [0.0, 0.0]
    for o, e in zip(observed, expected):
        pooled = [pooled[0] + o, pooled[1] + e]
        if pooled[1] >= 5.0:
            obs.append(pooled[0])
            exp.append(pooled[1])
            pooled = [0.0, 0.0]
    obs[-1] += pooled[0]
    exp[-1] += pooled[1]
    return chisquare(obs, exp).pvalue


# (seed, n, p): inversion (min(p, 1-p) n <= 30) and BTPE, each also reflected
@pytest.mark.parametrize("seed, n, p", [(101, 40, 0.3), (102, 50, 0.8),
                                        (103, 1000, 0.4), (104, 5000, 0.93)])
def test_binomial_draws_the_binomial_distribution(seed, n, p):
    g, draws = Generator(seed), 20000
    counts = [0] * (n + 1)
    for _ in range(draws):
        counts[g.binomial(n, p)] += 1
    assert _chi2_p(counts, draws * binom.pmf(np.arange(n + 1), n, p)) > P_MIN


@pytest.mark.parametrize("cfg", [HardwareConfig(), BOUND], ids=["default", "bound"])
def test_multinomial_draws_each_count_pmf_row(cfg):
    g = Generator(105)
    for row in count_pmf(cfg):
        counts = g.multinomial(20000, row)
        assert _chi2_p(counts, [20000 * q for q in row]) > P_MIN
