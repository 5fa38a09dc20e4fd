import numpy as np
import pytest

from ionlink.fitting import ScanResult, fit_sinusoid, wrap_phase


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
