import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, chisquare

from ionlink.cli import _csv
from ionlink.config import DECAY_COOLANT_RECONSTRUCTION, HardwareConfig, coolant_config
from ionlink.protocol import (
    _BLOCK,
    RECORD_COLUMNS,
    _loop_cap,
    _record_rows,
    _sampler,
    _search,
    _success_model,
    effective_attempt_rate,
    rate_experiment,
    simulate_campaign,
)
from ionlink.rate_model import DecayParams, success_cdf_table
from qutil import bernoulli_request, empirical_cdf, reference_simulate_campaign

COLUMNS = ("attempts_used", "wall_ns", "success_mask", "signs", "loop_index")


def test_effective_attempt_rates():
    assert effective_attempt_rate(coolant_config()) == pytest.approx(1e6)
    # 50 x 1 us + 100 us cooling -> 333 kHz, the 33% duty cycle
    assert effective_attempt_rate(HardwareConfig()) == pytest.approx(1e6 / 3.0)
    no_cooling = replace(HardwareConfig(), cooling_duration=1e-30)
    assert effective_attempt_rate(no_cooling) == pytest.approx(1e6, rel=1e-9)


def test_survival_table_matches_literal_bernoulli_products():
    cfg = HardwareConfig()
    table = success_cdf_table(_success_model(cfg), cfg.loop_cap_no_coolant)
    assert table[0] == pytest.approx(cfg.decay_a + cfg.decay_c)
    survival = 1.0
    for n in range(cfg.loop_cap_no_coolant):
        p = cfg.decay_a * math.exp(-cfg.decay_b * n) + cfg.decay_c
        survival *= 1.0 - p
        assert table[n] == pytest.approx(1.0 - survival, abs=1e-15)
    # no decay: every attempt succeeds with A + C
    flat = success_cdf_table(DecayParams(cfg.decay_a, 0.0, cfg.decay_c), 1001)
    p = cfg.decay_a + cfg.decay_c
    for n in (0, 10, 1000):
        assert flat[n] == pytest.approx(1.0 - (1.0 - p) ** (n + 1), rel=1e-12)
    # the coolant removes the recoil decay: constant 2.5e-4 per attempt
    cool = coolant_config()
    table = success_cdf_table(_success_model(replace(cool, decay_b=0.5)), 20000)
    for n in (0, 5000):
        assert table[n] == pytest.approx(1.0 - (1.0 - 2.5e-4) ** (n + 1), rel=1e-9)


def test_certain_success_wall_times():
    cfg = replace(HardwareConfig(), decay_a=0.0, decay_b=0.0, decay_c=1.0)
    rep = simulate_campaign(cfg, 1, 0)
    assert rep.success_mask[0] and rep.attempts_used[0] == 1
    assert rep.wall_ns[0] == 1000  # one 1 us attempt
    cool = replace(coolant_config(), decay_c=1.0)
    rep = simulate_campaign(cool, 1, 0)
    assert rep.attempts_used[0] == 1
    assert rep.wall_ns[0] == 100_000 + 1000  # initial cooling + one attempt


def test_wall_time_schedule_arithmetic_exact():
    cfg = HardwareConfig()
    attempt_ns = 1000
    cooling_ns = 100_000
    rep = simulate_campaign(cfg, 200, master_seed=3)
    att, loops = rep.attempts_used, rep.loop_index
    assert np.array_equal(rep.wall_ns, att * attempt_ns + loops * cooling_ns)
    assert np.all(att > loops * cfg.loop_cap_no_coolant)
    assert np.all(att <= (loops + 1) * cfg.loop_cap_no_coolant)
    assert rep.total_wall_ns == int(rep.wall_ns.sum())
    assert rep.total_wall_ns == rep.attempt_wall_ns + rep.cooling_wall_ns
    assert rep.cooling_wall_ns == int(loops.sum()) * cooling_ns


def test_coolant_cap_and_failures():
    cfg = replace(coolant_config(), loop_cap_with_coolant=100)
    rep = simulate_campaign(cfg, 3000, master_seed=11)
    assert np.all(rep.attempts_used <= 100)
    failed = ~rep.success_mask
    fails = int(failed.sum())
    assert np.all(rep.signs[failed] == 0)
    assert np.all(rep.attempts_used[failed] == 100)
    assert np.all(np.abs(rep.signs[rep.success_mask]) == 1)
    assert np.array_equal(rep.wall_ns, 100_000 + rep.attempts_used * 1000)
    # P(failure) = (1 - 2.5e-4)^100 ~ 0.975
    assert fails == pytest.approx(3000 * 0.9753, abs=3 * np.sqrt(3000 * 0.025))


def test_hardware_counter_cap_flag():
    cfg = replace(coolant_config(), hardware_counter_cap=2**14)
    rep = simulate_campaign(cfg, 500, master_seed=2)
    assert np.all(rep.attempts_used <= 2**14)
    assert np.all(rep.attempts_used[~rep.success_mask] == 2**14)


def test_deterministic_replay_and_prefix_stability():
    cfg = HardwareConfig()
    rep1 = simulate_campaign(cfg, 500, master_seed=99)
    rep2 = simulate_campaign(cfg, 500, master_seed=99)
    for col in COLUMNS:
        assert np.array_equal(getattr(rep1, col), getattr(rep2, col))
    assert rep1.total_wall_ns == rep2.total_wall_ns
    # a request's outcome depends on (seed, index) only: a longer campaign,
    # spanning several substream blocks, starts with the same rows
    long = simulate_campaign(cfg, 10_000, master_seed=99)
    for col in COLUMNS:
        assert np.array_equal(getattr(long, col)[:500], getattr(rep1, col))
    rep3 = simulate_campaign(cfg, 500, master_seed=100)
    assert not np.array_equal(rep1.attempts_used, rep3.attempts_used)


@pytest.mark.parametrize("cfg", [
    replace(HardwareConfig(), decay_a=0.05, decay_b=0.1, decay_c=0.02,
            loop_cap_no_coolant=10),
    replace(coolant_config(), decay_c=0.05, loop_cap_with_coolant=30),
], ids=["no_coolant", "coolant"])
def test_attempts_distribution_matches_bernoulli_oracle(cfg):
    # two-sample chi-square: kernel vs literal per-attempt coin flips; failed
    # requests get their own category
    n = 20_000
    rep = simulate_campaign(cfg, n, master_seed=31)
    rng = np.random.default_rng(32)
    oracle = np.array([bernoulli_request(cfg, rng) for _ in range(n)])
    kmax = 40

    def categories(attempts, success):
        return np.where(success, np.minimum(attempts, kmax), kmax + 1)

    kernel = categories(rep.attempts_used, rep.success_mask)
    ref = categories(oracle[:, 0], oracle[:, 1].astype(bool))
    table = np.array([np.bincount(kernel, minlength=kmax + 2)[1:],
                      np.bincount(ref, minlength=kmax + 2)[1:]])
    table = table[:, table.sum(axis=0) > 0]
    assert chi2_contingency(table).pvalue > 0.01


def test_constant_p_attempts_follow_geometric_law():
    # chi-square goodness of fit against the geometric distribution
    p = 0.37
    cfg = replace(coolant_config(), decay_a=0.0, decay_c=p,
                  loop_cap_with_coolant=200)
    n = 1_000_000
    rep = simulate_campaign(cfg, n, master_seed=5)
    kmax = 12
    counts = np.bincount(np.minimum(rep.attempts_used, kmax + 1),
                         minlength=kmax + 2)[1:]
    expected = np.array([n * p * (1 - p) ** (k - 1) for k in range(1, kmax + 1)]
                        + [n * (1 - p) ** kmax])
    stat, pvalue = chisquare(counts, expected)
    assert pvalue > 0.01


def test_no_coolant_rate_at_constant_reference_probability():
    # constant p = 2.33e-4 on the 50 x 1us + 100us schedule: the analytic
    # expectation is ~78 per second including the recooling duty cycle
    p = 2.33e-4
    cfg = replace(HardwareConfig(), decay_a=0.0, decay_b=0.0, decay_c=p)
    n = 20_000
    rep = simulate_campaign(cfg, n, master_seed=17)
    cap = 50
    q = 1.0 - (1.0 - p) ** cap
    mean_attempts = (1.0 - (1.0 - p) ** cap) / p / q  # E[attempts | success] per request
    mean_loops = 1.0 / q
    wall = mean_attempts * 1e-6 + (mean_loops - 1.0) * 100e-6
    expected_rate = 1.0 / wall
    sigma_rate = expected_rate / np.sqrt(n)  # request time is ~exponential
    assert rep.rate_hz == pytest.approx(expected_rate, abs=3 * sigma_rate)
    assert expected_rate == pytest.approx(78.0, abs=0.5)


def test_summary_standard_errors():
    cfg = HardwareConfig()
    small = simulate_campaign(cfg, 4_000, master_seed=41).summary()
    large = simulate_campaign(cfg, 64_000, master_seed=42).summary()
    # i.i.d. requests: 16x the requests, a quarter of the error
    for key in ("rate_hz_stderr", "mean_attempts_stderr"):
        assert small[key] / large[key] == pytest.approx(4.0, rel=0.15)
    # the delta-method error matches the scatter of independent campaigns
    reports = [simulate_campaign(cfg, 2_000, master_seed=s) for s in range(60)]
    rates = [r.rate_hz for r in reports]
    stderr = np.mean([r.summary()["rate_hz_stderr"] for r in reports])
    assert np.std(rates, ddof=1) == pytest.approx(stderr, rel=0.3)
    assert simulate_campaign(cfg, 1, 0).summary()["rate_hz_stderr"] is None


def test_herald_signs_are_balanced():
    # both photon Bell states herald equally often: over 10^7 default
    # requests (every one succeeds) the +1 count lies within 3 sd of half
    plus = successes = 0
    for master_seed in range(500, 510):
        rep = simulate_campaign(HardwareConfig(), 1_000_000, master_seed)
        plus += int(np.count_nonzero(rep.signs == 1))
        successes += rep.successes
    assert successes == 10_000_000
    assert abs(plus - successes / 2) < 3 * math.sqrt(successes / 4)


def test_empirical_cdf_matches_table():
    cfg = HardwareConfig()
    rep = simulate_campaign(cfg, 50_000, master_seed=23)
    caps = np.array([10, 25, 50])
    table = success_cdf_table(_success_model(cfg), 50)
    emp = empirical_cdf(rep, caps)
    for c, e in zip(caps, emp):
        want = table[c - 1]
        sigma = np.sqrt(want * (1 - want) / 50_000)
        assert abs(e - want) < 4 * sigma


def test_overlong_requests_rejected():
    # a loop success probability this small allows single requests whose
    # wall time would overflow the int64 nanosecond columns
    cfg = replace(HardwareConfig(), decay_a=0.0, decay_c=1e-15)
    with pytest.raises(ValueError, match="wall time"):
        simulate_campaign(cfg, 10, master_seed=0)


# SHA-256 of the herald-record CSV below its run header lines, plus summary(),
# for the three benchmark schedules at 10000 requests (three blocks), taken
# with a plain binary search of the in-loop positions: how the search finds
# them must not change any output.
CAMPAIGN_DIGESTS = {
    ("no_coolant", 1): "0cf49fe603d9dddef2d3b04d5d4ffbed1c61c2955d370f38a70c7f16dcfc3a3c",
    ("no_coolant", 2): "f9170464beaa39678076303ebba8f98d0da078b03b56ce9bfcb3f635900e1174",
    ("coolant", 1): "75cd7e23c34a0e234e55c5121045d92e127622e114166abef126ea330395bb1f",
    ("coolant", 2): "06e8c12885837bfab0a860101447e1e050b04cedcc6ef8b90c761ae2a5505e4b",
    ("long_cap", 1): "c696331cfdbe7fdfd2cf4096a021709ea21202ab8fe7bc30a0165c8b1aa0390d",
    ("long_cap", 2): "f60ba5cc341d2e468681abc88539c237d784a39b486b88282855ec14bed6abde",
}


def _schedule(name):
    a, b, c = DECAY_COOLANT_RECONSTRUCTION
    return {"no_coolant": HardwareConfig(), "coolant": coolant_config(),
            "long_cap": replace(HardwareConfig(), decay_a=a, decay_b=b, decay_c=c,
                                loop_cap_no_coolant=80_000)}[name]


@pytest.mark.parametrize("name,seed", sorted(CAMPAIGN_DIGESTS))
def test_campaign_outputs_pinned(name, seed):
    requests = 10_000
    assert requests > 2 * _BLOCK
    cfg = _schedule(name)
    rep = simulate_campaign(cfg, requests, seed)
    records = _csv(cfg, seed, RECORD_COLUMNS, _record_rows(rep, requests))
    blob = records.split("\n", 3)[3] + json.dumps(rep.summary(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == CAMPAIGN_DIGESTS[name, seed]


def _no_coolant(p, cap):
    """A no-coolant config that samples the success model ``p`` in loops of
    ``cap``."""
    return replace(HardwareConfig(), decay_a=p.a, decay_b=p.b, decay_c=p.c,
                   loop_cap_no_coolant=cap)


def _assert_search(s, table, keys):
    """The guide search equals a binary search of the sentinel table, which
    is the binary search of the table itself with the key ``q`` (past the
    table) moved onto the last entry."""
    got = _search(s, keys)
    assert np.array_equal(got, np.searchsorted(s.bounded, keys, side="right"))
    assert np.array_equal(got, np.minimum(np.searchsorted(table, keys, side="right"),
                                          table.size - 1))


@pytest.mark.parametrize("name", ["no_coolant", "coolant", "long_cap"])
def test_bucket_search_matches_plain_searchsorted(name):
    cfg = _schedule(name)
    s = _sampler(cfg)
    table = success_cdf_table(_success_model(cfg), _loop_cap(cfg))
    q = float(table[-1])
    assert s.q == q and np.array_equal(s.bounded[:-1], table[:-1])
    rng = np.random.default_rng(31)
    keys = np.concatenate([
        rng.random(3000) * q,
        table[rng.integers(table.size, size=500)],  # exact table entries
        table[:3], [0.0, q, q, np.nextafter(q, 0.0)],
        np.repeat(rng.random(5) * q, 4),            # repeated keys
    ])
    rng.shuffle(keys)
    _assert_search(s, table, keys)
    # u * q == q lands on the last entry, as the sentinel puts it there
    assert _search(s, np.array([q]))[0] == table.size - 1


@st.composite
def models(draw):
    """A valid success model and cap.  c = 1 builds a one-entry table, large
    c tables whose trailing entries round to 1.0, and c = 1e-17 a table of
    zeros (q = 0)."""
    c = draw(st.one_of(st.sampled_from([1.0, 0.5, 2.5e-4, 1e-5, 1e-17]),
                       st.floats(1e-5, 1.0)))
    a = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0 - c)))
    assume(a + c <= 1.0)
    b = draw(st.one_of(st.sampled_from([0.0, 50.0]), st.floats(0.0, 10.0)))
    cap = draw(st.one_of(st.sampled_from([1, 2, 50, 20_000, 100_000]),
                         st.integers(1, 100_000)))
    return DecayParams(a, b, c), cap


@st.composite
def tables_and_keys(draw):
    """A success model and cap (see ``models``), with keys in ``[0, q]``:
    table entries, their float neighbours, 0, ``q`` and repeats."""
    p, cap = draw(models())
    table = success_cdf_table(p, cap)
    q = float(table[-1])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    at = table[rng.integers(table.size, size=200)]
    keys = np.concatenate([rng.random(500) * q, at, np.nextafter(at, 0.0),
                           np.nextafter(at, 2.0), table[-3:], [0.0, q, q],
                           np.repeat(rng.random(5) * q, 3)])
    keys = keys[(keys >= 0.0) & (keys <= q)]
    rng.shuffle(keys)
    return p, cap, keys


@settings(max_examples=100, deadline=None, derandomize=True)
@given(tables_and_keys())
def test_bucket_search_equals_searchsorted(inputs):
    p, cap, keys = inputs
    _assert_search(_sampler(_no_coolant(p, cap)), success_cdf_table(p, cap), keys)


def test_bucket_index_is_read_only_and_bounded():
    cfg = coolant_config()
    s = _sampler(cfg)
    assert _sampler(cfg) is s
    assert s.guide.dtype == np.int32 and s.guide.size == 2 * 20_000 + 1
    for arr in (s.guide, s.bounded):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    for cap in range(1, 12):  # past 2**17 buckets
        s = _sampler(replace(cfg, loop_cap_with_coolant=300_000 + cap))
        assert s.guide.size == 2**17 + 1
    info = _sampler.cache_info()
    assert info.maxsize == 8 and info.currsize == 8


@st.composite
def campaigns(draw):
    """A config of either schedule on a drawn success model, loop cap and
    hardware counter cap, with a request count at and around the block
    edges, and a seed."""
    p, cap = draw(models())
    cfg = replace(_no_coolant(p, cap), loop_cap_with_coolant=cap,
                  coolant_present=draw(st.booleans()),
                  hardware_counter_cap=draw(st.one_of(
                      st.none(), st.just(1), st.integers(1, 100_000))))
    requests = draw(st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                     2 * _BLOCK + 7]))
    return cfg, requests, draw(st.integers(0, 2**63 - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(campaigns())
@example((replace(HardwareConfig(), decay_a=0.0, decay_c=1e-17), 10, 0))  # q = 0
def test_campaign_equals_the_reference_kernel(inputs):
    cfg, requests, seed = inputs
    try:
        want = reference_simulate_campaign(cfg, requests, seed)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            simulate_campaign(cfg, requests, seed)
        return
    got = simulate_campaign(cfg, requests, seed)
    for col in COLUMNS:
        a, b = getattr(got, col), getattr(want, col)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), col
        assert not a.flags.writeable and not b.flags.writeable
    for name in ("requests", "successes", "total_wall_ns", "attempt_wall_ns",
                 "cooling_wall_ns"):
        assert type(getattr(got, name)) is int
        assert getattr(got, name) == getattr(want, name)
    assert got.summary() == want.summary()


@pytest.mark.parametrize("requests", [0, -1, 10.0, True, "10", None, np.float64(5)])
def test_request_count_must_be_a_positive_integer(requests):
    with pytest.raises(ValueError, match="requests must be an integer"):
        simulate_campaign(HardwareConfig(), requests, master_seed=0)


def test_numpy_integer_request_count_accepted():
    rep = simulate_campaign(HardwareConfig(), np.int64(5), master_seed=0)
    assert rep.requests == 5


def test_loop_that_never_heralds_rejected():
    # 1 - 1e-17 rounds to 1: the loop success probability q is 0 and a
    # no-coolant request would loop forever
    cfg = replace(HardwareConfig(), decay_a=0.0, decay_c=1e-17)
    with pytest.raises(ValueError, match="wall time"):
        simulate_campaign(cfg, 10, master_seed=0)
    # with the coolant every request fails at the cap
    rep = simulate_campaign(replace(cfg, coolant_present=True), 10, master_seed=0)
    assert rep.successes == 0 and np.all(rep.attempts_used == cfg.loop_cap_with_coolant)


def test_rate_experiment_campaigns_agree_with_their_curves():
    # each schedule's campaign estimates the closed-form rate of its own
    # curve at the loop cap the campaign runs
    caps = [1, 50, 2000, 20000]
    experiment = rate_experiment(HardwareConfig(), caps, 20_000, 11)
    assert list(experiment) == ["no_coolant", "coolant"]
    assert experiment["coolant"][0] == coolant_config()
    for name, (cfg, curve, report) in experiment.items():
        cap = _loop_cap(cfg)
        expected = curve.rate_hz[caps.index(cap)]
        stderr = report.summary()["rate_hz_stderr"]
        assert abs(report.rate_hz - expected) <= 3 * stderr, name
