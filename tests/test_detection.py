import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import binom, poisson

from ionlink.config import HardwareConfig, measured_swap_config
from ionlink.detection import (
    ConfusionMatrix,
    _binom_pmf,
    choose_thresholds,
    count_pmf,
    effective_bright_probs,
    simulate_histogram,
    spam_correct,
)
from ionlink.rng import Generator
from qutil import classify_counts

DEFAULT = HardwareConfig()
DEFAULT_PMF = count_pmf(DEFAULT)


def hist_mean(hist):
    hist = np.asarray(hist)
    counts = np.arange(hist.size)
    return float((hist * counts).sum() / hist.sum())


def test_pure_dark_histogram():
    cfg = HardwareConfig(bright_rate=0.0, dark_rate=2000.0, readout_duration=1e-3,
                         shelving_fidelity=1.0, bright_detect_fidelity=1.0)
    hist = simulate_histogram(0, count_pmf(cfg), 200_000, Generator(1))
    mu = cfg.dark_rate * cfg.readout_duration
    assert hist_mean(hist) == pytest.approx(mu, abs=3 * np.sqrt(mu / 200_000))


def test_two_bright_mean_is_additive():
    cfg = HardwareConfig(shelving_fidelity=1.0, bright_detect_fidelity=1.0)
    hist = simulate_histogram(2, count_pmf(cfg), 200_000, Generator(2))
    mu = (cfg.dark_rate + 2 * cfg.bright_rate) * cfg.readout_duration
    assert hist_mean(hist) == pytest.approx(mu, abs=3 * np.sqrt(mu / 200_000))


def test_histogram_means_scale_with_duration():
    rng = Generator(3)
    m1 = count_pmf(HardwareConfig(readout_duration=1e-3, shelving_fidelity=1.0,
                                  bright_detect_fidelity=1.0))
    m2 = count_pmf(HardwareConfig(readout_duration=2e-3, shelving_fidelity=1.0,
                                  bright_detect_fidelity=1.0))
    h1 = simulate_histogram(1, m1, 100_000, rng)
    h2 = simulate_histogram(1, m2, 100_000, rng)
    ratio = hist_mean(h2) / hist_mean(h1)
    assert ratio == pytest.approx(2.0, abs=0.02)


def test_flip_probabilities_reproduce_aggregate_fidelities():
    # P(read 0 bright | both shelved) = shelving fidelity, by construction
    assert effective_bright_probs(0, DEFAULT)[0] == pytest.approx(0.987, abs=1e-12)
    assert effective_bright_probs(2, DEFAULT)[2] == pytest.approx(0.981, abs=1e-12)


def test_default_model_misclassification_levels():
    hists = [simulate_histogram(k, DEFAULT_PMF, 50_000, Generator(10 + k))
             for k in range(3)]
    thr = choose_thresholds(hists)
    cm = ConfusionMatrix.from_pmf(DEFAULT_PMF, thr.t1, thr.t2)
    # ~1.3% no-bright and ~1.9% two-bright error, dominated by the flips
    assert 1.0 - cm.matrix[0][0] == pytest.approx(0.013, abs=2e-3)
    assert 1.0 - cm.matrix[2][2] == pytest.approx(0.019, abs=2e-3)
    assert cm.matrix[0][0] >= 0.98 and cm.matrix[1][1] >= 0.98 and cm.matrix[2][2] >= 0.98


def test_choose_thresholds_separated_poissons():
    # means (1, 50, 100): thresholds land between the peaks.  True Poissons
    # at 50 vs 100 still overlap at the 1e-3 level (the 1e-4 target reference
    # for this case underestimates Poisson tails), so the error bound here is
    # the honest exhaustive-scan value.
    rng = np.random.default_rng(7)
    shots = 100_000
    hists = [np.bincount(rng.poisson(mu, shots)) for mu in (1.0, 50.0, 100.0)]
    thr = choose_thresholds(hists)
    assert 1 < thr.t1 < 50
    assert 50 < thr.t2 < 100
    assert thr.misclassification < 2e-3
    assert not thr.degenerate


def test_choose_thresholds_fully_resolved_poissons():
    rng = np.random.default_rng(17)
    shots = 100_000
    hists = [np.bincount(rng.poisson(mu, shots)) for mu in (1.0, 200.0, 400.0)]
    thr = choose_thresholds(hists)
    assert thr.misclassification < 1e-4


def test_choose_thresholds_is_optimal_by_brute_force():
    rng = np.random.default_rng(8)
    hists = [np.bincount(rng.poisson(mu, 20_000)) for mu in (2.0, 12.0, 30.0)]
    thr = choose_thresholds(hists)
    width = max(h.size for h in hists)
    norm = [h / h.sum() for h in hists]

    def error_of(t1, t2):
        errs = []
        for k, h in enumerate(norm):
            counts = np.arange(h.size)
            cls = classify_counts(counts, t1, t2)
            errs.append(h[cls != k].sum())
        return sum(errs) / 3.0

    brute = min(error_of(t1, t2) for t1 in range(width)
                for t2 in range(t1, width))
    assert thr.misclassification == pytest.approx(brute, abs=1e-12)


def _thresholds_by_literal_loop(histograms):
    """The exhaustive pair loop, in the order and with the tie rule that
    ``choose_thresholds`` must reproduce."""
    hists = [np.asarray(h, dtype=float) for h in histograms]
    width = max(h.size for h in hists)
    padded = np.zeros((3, width))
    for k, h in enumerate(hists):
        padded[k, :h.size] = h / h.sum()
    cums = np.cumsum(padded, axis=1)
    best = None
    for t1 in range(width):
        err0 = 1.0 - cums[0, t1]
        for t2 in range(t1, width):
            err1 = 1.0 - (cums[1, t2] - cums[1, t1])
            err2 = cums[2, t2]
            err = (err0 + err1 + err2) / 3.0
            if best is None or err < best[0] - 1e-15:
                best = (err, t1, t2)
    return best[1], best[2], float(best[0])


def _assert_matches_literal_loop(hists):
    thr = choose_thresholds(hists)
    assert (thr.t1, thr.t2, thr.misclassification) == _thresholds_by_literal_loop(hists)


def test_choose_thresholds_matches_literal_loop():
    """Sampled readouts, flat histograms, and drawn small integer histograms
    of ragged widths, whose errors tie on plateaus at round-off."""
    pmf = count_pmf(HardwareConfig(bright_rate=20000.0, dark_rate=2000.0))
    cases = []
    for seed in range(30):
        rng = np.random.default_rng(100 + seed)
        shots = int(rng.integers(50, 3000))
        cases.append([simulate_histogram(k, pmf, shots, rng) for k in range(3)])
    flat = np.ones(12)
    cases += [[flat, flat, flat], [flat, np.ones(5), np.ones(9)]]
    # best t1 = 3, where the error at t2 = 3 exceeds its minimum at t2 = 4
    # by round-off only: the tie rule keeps t2 = 3
    cases.append([[1, 1, 3, 1, 3, 2, 1], [1, 1, 0, 0, 1, 0], [0, 1, 0, 0, 1, 1]])
    for hists in cases:
        _assert_matches_literal_loop(hists)

    histogram = st.lists(st.integers(0, 3), min_size=1, max_size=30)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(histogram, min_size=3, max_size=3))
    def drawn(hists):
        assume(all(sum(h) > 0 for h in hists))
        _assert_matches_literal_loop(hists)

    drawn()


def test_identical_histograms_flag_degenerate():
    h = np.bincount(np.random.default_rng(9).poisson(10.0, 10_000))
    thr = choose_thresholds([h, h, h])
    assert thr.degenerate


def test_spam_correct_identity():
    cm = ConfusionMatrix(np.eye(3))
    out = spam_correct(np.array([0.2, 0.5, 0.3]), cm)
    assert np.allclose(out.populations, [0.2, 0.5, 0.3], atol=1e-12)
    assert out.clipped_mass == 0.0


def test_spam_correct_forward_roundtrip():
    rng = np.random.default_rng(12)
    m = np.array([[0.98, 0.02, 0.00],
                  [0.01, 0.97, 0.02],
                  [0.00, 0.03, 0.97]])
    cm = ConfusionMatrix(m)
    for _ in range(10):
        p = rng.dirichlet(np.ones(3))
        observed = p @ m
        out = spam_correct(observed, cm)
        assert np.allclose(out.populations, p, atol=1e-12)
        assert out.clipped_mass == 0.0


def test_spam_correct_reference_level():
    # raw odd-parity population near 0.96 corrects to ~0.976 for a
    # reference-level confusion matrix
    cm = ConfusionMatrix.from_pmf(DEFAULT_PMF, 20, 150)
    truth = np.array([0.012, 0.976, 0.012])
    observed = truth @ cm.matrix
    assert observed[1] < 0.976  # readout errors wash the odd population out
    out = spam_correct(observed, cm)
    assert out.populations[1] == pytest.approx(0.976, abs=1e-10)


def test_spam_correct_clips_and_reports():
    m = np.array([[0.9, 0.1, 0.0],
                  [0.1, 0.8, 0.1],
                  [0.0, 0.1, 0.9]])
    cm = ConfusionMatrix(m)
    out = spam_correct(np.array([0.99, 0.01, 0.0]), cm)
    assert out.clipped_mass > 0.0
    assert np.all(np.asarray(out.populations) >= 0.0)
    assert sum(out.populations) == pytest.approx(1.0, abs=1e-12)


def test_spam_correct_takes_one_readout_and_checks_it():
    """Each readout is corrected alone: the 3-vector of one state's observed
    frequencies, as a tuple of Python floats; a vector that does not sum to
    1 or has another length is rejected."""
    cm = ConfusionMatrix(np.array([[0.9, 0.1, 0.0],
                                   [0.1, 0.8, 0.1],
                                   [0.0, 0.1, 0.9]]))
    observed = np.random.default_rng(8).dirichlet(np.ones(3), size=(2, 13))
    observed[0, 3] = [0.99, 0.01, 0.0]  # a row that clips
    for idx in np.ndindex(2, 13):
        row = spam_correct(observed[idx], cm)
        assert type(row.populations) is tuple and len(row.populations) == 3
        assert all(type(v) is float for v in (*row.populations, row.clipped_mass))
        raw = observed[idx] @ np.linalg.inv(cm.matrix)
        want = np.clip(raw, 0.0, None)
        np.testing.assert_allclose(row.populations, want / want.sum(), rtol=0, atol=1e-15)
        assert row.clipped_mass == pytest.approx(np.clip(-raw, 0.0, None).sum(), rel=0,
                                                 abs=1e-15)
    assert spam_correct(observed[0, 3], cm).clipped_mass > 0.0
    with pytest.raises(ValueError, match=r"must sum to 1, got .*1\.5"):
        spam_correct([0.5, 0.5, 0.5], cm)
    with pytest.raises(ValueError, match="3-vector"):
        spam_correct(observed[0, 0, :2], cm)
    with pytest.raises(ValueError, match="3-vector"):
        spam_correct([0.25] * 4, cm)


def test_confusion_inverse_stored_read_only():
    cm = ConfusionMatrix.from_pmf(DEFAULT_PMF, 20, 150)
    # the closed-form adjugate over the determinant, at numpy's round-off
    np.testing.assert_allclose(cm.inverse, np.linalg.inv(cm.matrix), rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.asarray(cm.inverse) @ cm.matrix, np.eye(3), rtol=0,
                               atol=1e-15)
    assert type(cm.inverse) is tuple and all(type(row) is tuple for row in cm.inverse)
    with pytest.raises(TypeError):
        cm.inverse[0][0] = 0.0


def test_singular_confusion_rejected():
    with pytest.raises(ValueError, match="singular"):
        ConfusionMatrix(np.full((3, 3), 1.0 / 3.0))
    with pytest.raises(ValueError, match="rows"):
        ConfusionMatrix(np.eye(3) * 0.9)


def test_condition_number_reported():
    cm = ConfusionMatrix.from_pmf(DEFAULT_PMF, 20, 150)
    assert 1.0 <= cm.condition_number < 1.2
    # the golden swap-overlap readout: measured profile, thresholds 4 and 10
    overlap = measured_swap_config(HardwareConfig(bright_rate=6000.0, dark_rate=2000.0))
    for cm in (cm, ConfusionMatrix.from_pmf(count_pmf(overlap), 4, 10)):
        assert cm.condition_number == pytest.approx(
            np.linalg.cond(np.array(cm.matrix), np.inf), rel=1e-12, abs=0.0)


def test_binom_pmf_matches_scipy():
    for n in range(3):
        for k in range(n + 1):
            for p in np.linspace(0.0, 1.0, 41):
                assert _binom_pmf(k, n, p) == pytest.approx(
                    binom.pmf(k, n, p), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("mu", [0.0, 0.5, 1.0, 101.0, 201.0, 745.0, 1000.0, 1e4])
def test_count_pmf_matches_scipy(mu):
    # pure Poisson rows: no flips and no bright counts
    pure = count_pmf(HardwareConfig(bright_rate=0.0, dark_rate=mu, readout_duration=1.0,
                                    shelving_fidelity=1.0, bright_detect_fidelity=1.0))
    assert len(pure[0]) == int(mu + 12.0 * np.sqrt(mu)) + 40
    for row in pure:
        np.testing.assert_allclose(np.cumsum(row), poisson.cdf(np.arange(len(row)), mu),
                                   rtol=0.0, atol=1e-12)
    # the flip mixture, with the two-bright mean at mu
    cfg = HardwareConfig(bright_rate=0.45 * mu, dark_rate=0.1 * mu, readout_duration=1.0)
    mixed = count_pmf(cfg)
    counts = np.arange(len(mixed[0]))
    for true, row in enumerate(mixed):
        ref = sum(p * poisson.cdf(counts, cfg.dark_rate + eff * cfg.bright_rate)
                  for eff, p in enumerate(effective_bright_probs(true, cfg)))
        np.testing.assert_allclose(np.cumsum(row), ref, rtol=0.0, atol=1e-12)
    for pmf in (pure, mixed):
        np.testing.assert_allclose(np.sum(pmf, axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert type(pmf) is tuple and all(type(row) is tuple for row in pmf)


@pytest.mark.parametrize("field", ["bright_rate", "dark_rate", "readout_duration"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_readout_model_rejects_non_finite_inputs(field, value):
    # a non-finite mean has no count pmf, so the config rejects it up front
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        HardwareConfig(**{field: value})


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_confusion_matrix_rejects_non_finite_entries(value):
    m = np.eye(3)
    m[1, 1] = value
    with pytest.raises(ValueError, match="finite"):
        ConfusionMatrix(m)
    with pytest.raises(ValueError, match="finite"):
        ConfusionMatrix(np.full((3, 3), value))


def test_confusion_matrix_rejects_disordered_thresholds():
    for t1, t2 in ((-1, 150), (150, 20)):
        with pytest.raises(ValueError, match="thresholds"):
            ConfusionMatrix.from_pmf(DEFAULT_PMF, t1, t2)


def test_confusion_matrix_long_readout_is_finite():
    # a 10 ms readout puts the two-bright mean at 2000 counts (e^-mu underflows)
    cfg = HardwareConfig(readout_duration=10e-3)
    cm = ConfusionMatrix.from_pmf(count_pmf(cfg), 500, 1500)
    assert np.all(np.isfinite(cm.matrix))
    # counts above 1500 come only from two effective bright ions
    assert cm.matrix[2][2] == pytest.approx(effective_bright_probs(2, cfg)[2],
                                            rel=1e-9)


def test_thresholded_samples_follow_confusion_matrix_rows():
    # the row of M that spam_correct inverts is the class distribution of a
    # sampled shot: checked at the thresholds the default model chooses
    rng = Generator(31)
    thr = choose_thresholds([simulate_histogram(k, DEFAULT_PMF, 20_000, rng)
                             for k in range(3)])
    cm = ConfusionMatrix.from_pmf(DEFAULT_PMF, thr.t1, thr.t2)
    shots = 2_000_000
    for true in range(3):
        hist = simulate_histogram(true, DEFAULT_PMF, shots, rng)
        cls = classify_counts(np.arange(len(hist)), thr.t1, thr.t2)
        observed = np.bincount(cls, weights=hist, minlength=3) / shots
        row = np.asarray(cm.matrix[true])
        sigma = np.sqrt(row * (1.0 - row) / shots)
        assert np.all(np.abs(observed - row) <= 3.0 * sigma), (true, observed, row)
