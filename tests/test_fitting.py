import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ionlink import analysis
from ionlink.cli import MAX_GRID_END, MAX_GRID_POINTS
from ionlink.fitting import (
    ScanResult,
    SinusoidFit,
    determines_sinusoid,
    exact_scan,
    linspace,
    sinusoid_fit,
    wrap_phase,
)
from qutil import _solver, fit_sinusoid


def test_exact_recovery_known_period():
    x = np.linspace(0, 2 * np.pi, 40)
    rng = np.random.default_rng(4)
    for k in (1.0, 2.0, 4.0):
        amp, phase, off = 0.37, 1.234, 0.51
        y = off + amp * np.sin(k * x - phase)
        fit = fit_sinusoid(x, y, k)
        assert fit.amplitude == pytest.approx(amp, abs=1e-12)
        assert fit.phase == pytest.approx(phase, abs=1e-12)
        assert fit.offset == pytest.approx(off, abs=1e-12)
        assert fit.residual_rms < 1e-12
        assert not fit.degenerate


def test_phase_convention_for_heralded_superposition():
    # P(up) = (1 + sin(phi - phi0))/2 must fit to phase == phi0
    phi0 = 5.0
    x = np.linspace(0, 2 * np.pi, 25)
    y = 0.5 * (1 + np.sin(x - phi0))
    fit = fit_sinusoid(x, y, 1.0)
    assert fit.phase == pytest.approx(phi0, abs=1e-9)


def test_phase_just_below_zero_wraps_to_zero():
    # arctan2 gives -1e-17 here, and -1e-17 mod 2*pi rounds to 2*pi
    x = np.linspace(0, np.pi, 25)
    fit = fit_sinusoid(x, np.sin(2 * x) + 1e-16 * np.cos(2 * x), 2.0)
    assert fit.phase == 0.0
    assert wrap_phase(-1e-17) == 0.0
    assert wrap_phase(-1.0) == pytest.approx(2 * np.pi - 1.0, abs=1e-15)
    assert wrap_phase(2 * np.pi) == 0.0


@pytest.mark.parametrize("phase", [np.nan, np.inf, -np.inf])
def test_wrap_phase_rejects_non_finite_phases(phase):
    with pytest.raises(ValueError, match="finite"):
        wrap_phase(phase)


def test_constant_data_flags_degenerate():
    x = np.linspace(0, np.pi, 10)
    fit = fit_sinusoid(x, np.full_like(x, 0.25), 2.0)
    assert fit.degenerate
    assert fit.amplitude < 1e-12
    assert fit.offset == pytest.approx(0.25, abs=1e-12)


def test_noise_residual_reported():
    rng = np.random.default_rng(9)
    x = np.linspace(0, 2 * np.pi, 200)
    y = 0.5 + 0.4 * np.sin(x) + rng.normal(0, 0.01, x.size)
    fit = fit_sinusoid(x, y, 1.0)
    assert fit.amplitude == pytest.approx(0.4, abs=5e-3)
    assert 0.005 < fit.residual_rms < 0.02


def test_requires_enough_points():
    with pytest.raises(ValueError):
        fit_sinusoid([0.0, 1.0], [0.0, 1.0], 1.0)


@pytest.mark.parametrize("x,k", [
    (np.linspace(0.0, 1e308, 5), 4.0),          # k * x overflows
    (np.array([0.0, 1.0, np.inf, 2.0]), 1.0),
    (np.array([0.0, 1.0, np.nan, 2.0]), 1.0),
    (np.linspace(0.0, 1.0, 5), np.inf),
    (np.linspace(0.0, 1.0, 5), np.nan),
])
def test_non_finite_phases_rejected_without_warnings(x, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="k \\* x must be finite"):
            fit_sinusoid(x, np.ones(x.size), k)


def test_non_finite_points_are_ignored():
    x = np.linspace(0, 2 * np.pi, 30)
    y = 0.5 + 0.2 * np.sin(x - 1.0)
    y[5] = np.nan
    fit = fit_sinusoid(x, y, 1.0)
    assert fit.amplitude == pytest.approx(0.2, abs=1e-12)
    assert fit.phase == pytest.approx(1.0, abs=1e-12)


def test_scan_result_fit_summary():
    x = np.linspace(0, 1, 5)
    y = 0.5 + 0.1 * np.sin(2 * x)
    fit = fit_sinusoid(x, y, 2.0)
    scan = ScanResult(control=x, series={"p": y}, fits={"p": fit},
                      angular_frequency=2.0, contrast=0.2)
    summary = scan.fit_summary()
    assert summary["contrast"] == 0.2
    assert summary["fits"]["p"]["amplitude"] == pytest.approx(0.1, abs=1e-12)
    # a table reads lists as it reads arrays, one Python float per cell
    listed = ScanResult(control=x.tolist(), series={"p": y.tolist()}, fits={"p": fit},
                        angular_frequency=2.0, contrast=0.2)
    table = scan.table()
    assert table == listed.table()
    assert list(table) == ["control_value", "p"]
    assert all(type(col) is list and len(col) == 5 for col in table.values())
    assert all(type(cell) is float for col in table.values() for cell in col)


# --- the numpy-free grid against np.linspace ------------------------------------

grid_ends = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, MAX_GRID_END, -MAX_GRID_END]),
    st.floats(-MAX_GRID_END, MAX_GRID_END))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(grid_ends, grid_ends, st.one_of(st.integers(3, 40), st.just(MAX_GRID_POINTS)))
@example(0.0, 0.0, 3)
@example(0.0, 5e-324, 3)            # the step underflows to zero
@example(-5e-324, 1e-323, 40)
@example(MAX_GRID_END, -MAX_GRID_END, MAX_GRID_POINTS)
def test_linspace_is_np_linspace_bit_for_bit(start, stop, num):
    got = linspace(start, stop, num)
    assert type(got) is list and all(type(v) is float for v in got)
    assert np.array(got).tobytes() == np.linspace(start, stop, num).tobytes()


# --- which grids determine a sinusoid, against the SVD rank ----------------------

DETERMINED = [  # grid, angular frequency
    (np.linspace(0.0, np.pi / 2.0, 37), 4.0),
    (np.linspace(0.0, 2.0 * np.pi, 41), 1.0),
    (np.linspace(0.0, np.pi, 13), 2.0),
    (np.linspace(0.0, 1.0, 7), 4.0),
    (np.linspace(-MAX_GRID_END, MAX_GRID_END, 5), 4.0),
    (1e-4 * np.arange(4.0), 1.0),    # condition number 1e9
    (1e-6 * np.arange(3.0), 1.0),
    (np.array([0.0, 0.0, np.pi, 1.0]), 1.0),
]
UNDETERMINED = [
    (np.linspace(0.0, 0.0, 3), 4.0),
    (np.linspace(0.0, np.pi, 3), 4.0),  # 4x lands on one point of the circle
    (np.linspace(0.0, 2.0 * np.pi, 3), 1.0),
    (np.pi * np.arange(4.0), 1.0),
    (np.array([0.0, 1.0, 1.0, 0.0]), 2.0),
    (1e-9 * np.arange(4.0), 1.0),
    (1e-8 * np.arange(3.0), 1.0),
    (np.linspace(0.0, 1.0, 5), 0.0),
]


@pytest.mark.parametrize("grid,k,determined", [(*case, True) for case in DETERMINED]
                         + [(*case, False) for case in UNDETERMINED])
def test_determines_sinusoid_is_full_svd_rank(grid, k, determined):
    assert (_solver(grid, k)[2] == 3) == determined
    assert determines_sinusoid(grid.tolist(), k) == determined


# --- the cached solver of the reference fit against np.linalg.lstsq -------------

sizes = st.one_of(st.just(3), st.integers(3, 40))
frequencies = st.one_of(st.sampled_from([1.0, 2.0, 4.0]), st.floats(0.05, 8.0))


@st.composite
def fit_inputs(draw):
    """A grid of one of four kinds, a frequency and data in [-1, 1] with up
    to all but 3 points NaN: random points; one point repeated (rank 1);
    multiples of pi at k = 1 or 2, where the sin regressor is round-off
    (rank 2 or 1); and k = 0, where it is exactly zero."""
    n = draw(sizes)
    kind = draw(st.sampled_from(["random", "random", "repeated", "multiples_of_pi",
                                 "k_zero"]))
    if kind == "multiples_of_pi":
        x = np.pi * draw(arrays(float, n, elements=st.integers(-2, 2).map(float)))
        k = draw(st.sampled_from([1.0, 2.0]))
    else:
        # ascending points at least pi/64 apart
        steps = draw(arrays(int, n, elements=st.integers(1, 32)))
        x = np.pi / 64.0 * (draw(st.integers(-256, 0)) + np.cumsum(steps))
        if kind == "repeated":
            x = np.full(n, x[0])
        k = 0.0 if kind == "k_zero" else draw(frequencies)
    y = draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
    y[draw(st.lists(st.integers(0, n - 1), max_size=n - 3))] = np.nan
    return x, y, k


@settings(max_examples=200, deadline=None, derandomize=True)
@given(fit_inputs())
@example((np.pi * np.arange(4.0), np.array([0.1, -0.2, 0.3, 0.5]), 1.0))  # rank 2
@example((np.linspace(0.0, 1.0, 4), np.array([0.1, np.nan, 0.3, 0.2]), 2.0))  # 3 finite
@example((1e-4 * np.arange(4.0), np.array([0.1, -0.2, 0.3, 0.5]), 1.0))  # rank 3, cond 1e9
def test_cached_solver_fit_equals_lstsq(inputs):
    x, y, k = inputs
    finite = np.isfinite(y)
    xf, yf = x[finite], y[finite]
    design = np.column_stack([np.sin(k * xf), np.cos(k * xf), np.ones_like(xf)])
    coef, _, rank, sv = np.linalg.lstsq(design, yf, rcond=None)
    # where the numerical rank is unambiguous, both solvers find it
    cutoff = np.finfo(float).eps * xf.size * sv[0]
    assume(sv[rank - 1] >= 10.0 * cutoff and np.all(sv[rank:] <= 0.1 * cutoff))
    assert _solver(xf, k)[2] == rank
    # with a well-conditioned kept part, two SVD-based solvers agree to round-off
    if sv[rank - 1] < 1e-4 * sv[0]:
        return
    fit = fit_sinusoid(x, y, k)
    _assert_fit_is_lstsq(fit, design, yf, coef)
    assert fit.degenerate == bool(rank < 3 or np.hypot(coef[0], coef[1]) < 1e-14)


def _assert_fit_is_lstsq(fit, design, y, coef):
    amplitude = np.hypot(coef[0], coef[1])
    resid = y - design @ coef
    assert fit.amplitude == pytest.approx(amplitude, rel=0, abs=1e-12)
    assert fit.offset == pytest.approx(coef[2], rel=0, abs=1e-12)
    assert fit.residual_rms == pytest.approx(np.sqrt(np.mean(resid ** 2)), rel=0, abs=1e-12)
    # y = offset + A sin(kx - phase): sin coefficient A cos(phase), cos coefficient -A sin(phase)
    np.testing.assert_allclose([fit.amplitude * np.cos(fit.phase),
                                -fit.amplitude * np.sin(fit.phase)],
                               coef[:2], rtol=0, atol=1e-12)


# --- swap's parity-scan fit against np.linalg.lstsq ------------------------------

@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(-1.0, 1.0), st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
       st.floats(0.0, 2.0 * np.pi), st.sampled_from([0.0, 1e-3, 1.0]),
       arrays(float, 13, elements=st.floats(-1.0, 1.0)))
def test_parity_scan_fit_equals_lstsq(offset, amplitude, phase, noise, drawn):
    """``fit_parity_scan`` on swap's grid agrees with lstsq at 1e-12: noisy
    parity scans, exact ones and flat ones."""
    x = np.array(analysis.PARITY_PHASES)
    assert x.tobytes() == np.linspace(0.0, np.pi, 13).tobytes()
    y = offset + amplitude * np.sin(2.0 * x - phase) + noise * drawn
    design = np.column_stack([np.sin(2.0 * x), np.cos(2.0 * x), np.ones_like(x)])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    fit = analysis.fit_parity_scan(y.tolist())
    _assert_fit_is_lstsq(fit, design, y, coef)
    assert fit.degenerate == bool(np.hypot(coef[0], coef[1]) < 1e-14)


def test_parity_scan_fit_needs_one_value_per_phase():
    for n in (12, 14):
        with pytest.raises(ValueError, match="one parity per phase"):
            analysis.fit_parity_scan([0.0] * n)


# --- the fit and scan builders of the closed-form scans ----------------------------

def test_sinusoid_fit_wraps_the_phase_and_flags_a_flat_fit():
    assert sinusoid_fit(0.25, -0.5 * np.pi, 0.5) == SinusoidFit(0.25, 1.5 * np.pi, 0.5, 0.0)
    assert sinusoid_fit(0.25, 1.0, 0.5, degenerate=True).degenerate
    # below an amplitude of 1e-14 the phase is round-off: 0, and the fit degenerate
    assert sinusoid_fit(9e-15, 1.0, 0.5, 0.1) == SinusoidFit(9e-15, 0.0, 0.5, 0.1, True)


def test_exact_scan_builds_series_fits_and_flag():
    x = np.linspace(0.0, np.pi, 9)
    wave = {"wave": (0.5, 0.3, 1.2)}
    scan = exact_scan(x, 2.0, wave | {"flat": (0.25, 0.0, 2.0)}, 0.3)
    np.testing.assert_allclose(scan.series["wave"], 0.5 + 0.3 * np.sin(2.0 * x - 1.2),
                               rtol=0, atol=1e-15)
    assert scan.series["flat"] == [0.25] * 9
    assert scan.fits == {"wave": SinusoidFit(0.3, 1.2, 0.5, 0.0),
                         "flat": SinusoidFit(0.0, 0.0, 0.25, 0.0, True)}
    assert (scan.angular_frequency, scan.contrast, scan.flags) == (2.0, 0.3, ("fit_degenerate",))
    assert exact_scan(x, 2.0, wave, 0.3).flags == ()
    # a grid that does not determine a sinusoid at k makes every fit degenerate
    short = exact_scan([0.0, 1.0], 2.0, wave, 0.3)
    assert short.fits["wave"].degenerate and short.flags == ("fit_degenerate",)
    with pytest.raises(ValueError, match="finite"):
        exact_scan([0.0, np.inf, 1.0], 2.0, wave, 0.3)
