import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionlink.config import dephasing_infidelity
from ionlink.fitting import linspace
from ionlink.ion_photon import (
    PAIR_DIMS,
    SourceParams,
    coherence_scan,
    correlated_populations,
    correlation_scan,
    emit_ion_photon_state,
    fidelity_lower_bound_pair,
    fidelity_upper_bound,
    heralded_ion_state,
)
from ionlink.quantum import DensityMatrix
from qutil import (
    ION,
    PHOTON,
    SIGMA_X,
    SIGMA_Y,
    _ION_UP,
    _PHOTON_POL,
    apply_channel,
    density,
    dephasing_channel,
    fidelity_pure,
    ideal_pair_state,
    ket,
    lift,
    random_density,
    raman_rotation,
    rotated_populations,
    stacked_correlation_scan,
    waveplate_unitary,
)

HWP_GRID = np.linspace(0.0, np.pi / 2.0, 37)
PHASE_GRID = np.linspace(0.0, 2.0 * np.pi, 41)
P_UP = np.diag([0.0, 1.0])    # ion up, or photon V
P_DOWN = np.diag([1.0, 0.0])  # ion down, or photon H


def test_ideal_emission_matches_target():
    params = SourceParams(pol_mixing=0.0, superposition_phase=0.0)
    state = emit_ion_photon_state(params)
    assert fidelity_pure(state, ideal_pair_state(0.0)) == pytest.approx(1.0, abs=1e-12)


def test_waveplate_trivial_settings():
    hwp0 = waveplate_unitary(0.0)
    # diag(1, -1) up to global phase
    ratio = hwp0[1, 1] / hwp0[0, 0]
    assert ratio == pytest.approx(-1.0, abs=1e-12)
    hwp45 = waveplate_unitary(np.pi / 4.0)
    assert abs(hwp45[0, 1]) == pytest.approx(1.0, abs=1e-12)
    assert abs(hwp45[1, 0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(hwp45[0, 0]) < 1e-12
    u = waveplate_unitary(0.3)
    assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12


def test_hwp_at_225_gives_balanced_outcomes():
    state = emit_ion_photon_state(SourceParams())
    scan = correlation_scan(state, np.array([0.0, np.pi / 8.0, np.pi / 4.0]))
    # at 22.5 degrees both conditionals are 1/2 by direct Born computation
    assert scan.series["p_up_given_V"][1] == pytest.approx(0.5, abs=1e-12)
    assert scan.series["p_up_given_H"][1] == pytest.approx(0.5, abs=1e-12)


def test_correlation_scan_ideal_contrast():
    state = emit_ion_photon_state(SourceParams())
    scan = correlation_scan(state, HWP_GRID)
    assert scan.contrast == pytest.approx(1.0, abs=1e-9)
    assert max(scan.series["p_up_given_V"]) == pytest.approx(1.0, abs=1e-12)
    assert min(scan.series["p_up_given_V"]) == pytest.approx(0.0, abs=1e-12)


def test_correlation_contrast_equals_one_minus_mixing():
    for p in (0.05, 0.2, 0.5):
        state = emit_ion_photon_state(SourceParams(pol_mixing=p))
        scan = correlation_scan(state, HWP_GRID)
        assert scan.contrast == pytest.approx(1.0 - p, abs=1e-6)


def test_reference_contrast_gives_documented_upper_bound():
    state = emit_ion_photon_state(SourceParams(pol_mixing=0.018))
    scan = correlation_scan(state, HWP_GRID)
    assert scan.contrast == pytest.approx(0.982, abs=1e-9)
    assert fidelity_upper_bound(scan.contrast) == pytest.approx(0.991, abs=1e-9)


def test_raman_rotation_basics():
    r_pi = raman_rotation(0.0) @ raman_rotation(0.0)
    flipped = r_pi @ np.array([1.0, 0.0])
    assert abs(flipped[1]) == pytest.approx(1.0, abs=1e-12)
    for phi in (0.0, 1.1, 4.0):
        half = raman_rotation(phi)
        # two pi/2 pulses make the pi pulse -i (cos(phi) sx + sin(phi) sy)
        pi_pulse = -1j * (np.cos(phi) * SIGMA_X + np.sin(phi) * SIGMA_Y)
        assert np.allclose(half @ half, pi_pulse, atol=1e-12)
        assert np.max(np.abs(half @ half.conj().T - np.eye(2))) < 1e-12


@pytest.mark.parametrize("phase", [0.0, 0.48, 5.00])
def test_coherence_scan_recovers_source_phase(phase):
    pair = emit_ion_photon_state(SourceParams(superposition_phase=phase))
    ion = heralded_ion_state(pair, +1)
    scan = coherence_scan(ion, PHASE_GRID)
    assert scan.contrast == pytest.approx(1.0, abs=1e-9)
    assert scan.fits["p_up"].phase == pytest.approx(phase, abs=1e-6)


def test_negative_herald_flips_phase_by_pi():
    pair = emit_ion_photon_state(SourceParams(superposition_phase=1.0))
    ion = heralded_ion_state(pair, -1)
    scan = coherence_scan(ion, PHASE_GRID)
    assert scan.fits["p_up"].phase == pytest.approx((1.0 + np.pi) % (2 * np.pi),
                                                    abs=1e-6)


def test_coherence_contrast_bounds_fidelity():
    # contrast 0.962 with balanced populations -> lower bound 98.1%
    assert fidelity_lower_bound_pair(1.0, 0.962) == pytest.approx(0.981, abs=1e-12)


def test_dephased_ion_contrast_and_infidelity():
    # phase damping by gamma leaves a heralded ion of the Werner form, with
    # the mixing 1 - gamma, so its coherence contrast is gamma
    ion = heralded_ion_state(emit_ion_photon_state(SourceParams()), +1)
    t, t2 = 40e-6, 550e-6
    gamma = np.exp(-((t / t2) ** 2))
    dephased = apply_channel(DensityMatrix(ion.matrix, ion.dims), dephasing_channel(gamma))
    werner = heralded_ion_state(emit_ion_photon_state(SourceParams(1.0 - gamma)), +1)
    np.testing.assert_allclose(werner.matrix, dephased.matrix, rtol=0, atol=1e-12)
    scan = coherence_scan(werner, PHASE_GRID)
    assert scan.contrast == pytest.approx(gamma, abs=1e-12)
    # the matching infidelity is the reference 0.26% decoherence contribution
    assert dephasing_infidelity(t, t2) == pytest.approx(0.0026, abs=1e-4)


def test_dephasing_infidelity_properties():
    assert dephasing_infidelity(0.0, 1.0) == 0.0
    # equal superposition fully dephased at t = T2 (exponential convention)
    assert dephasing_infidelity(38e-3, 38e-3, envelope="exponential") == \
        pytest.approx(0.5 * (1 - np.exp(-1)), abs=1e-12)
    ts = np.linspace(0.0, 5.0, 200)
    vals = [dephasing_infidelity(t, 1.0) for t in ts]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert dephasing_infidelity(1e3, 1.0) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        dephasing_infidelity(1.0, -1.0)
    with pytest.raises(ValueError):
        dephasing_infidelity(1.0, 1.0, envelope="lorentzian")


def test_dephasing_infidelity_at_huge_times():
    # the Gaussian envelope's square would overflow a float past t/T2* = 1e154
    for envelope in ("gaussian", "exponential"):
        assert dephasing_infidelity(1e300, 1e-3, envelope=envelope) == 0.5
        assert dephasing_infidelity(1e300, 5e-324, envelope=envelope) == 0.5


def test_correlated_populations_ideal():
    state = emit_ion_photon_state(SourceParams(superposition_phase=0.3))
    assert correlated_populations(state) == 1.0
    m = state.matrix
    assert np.real(m[0, 0] + m[3, 3]) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(0.0, 1.0), st.floats(0.0, 2.0 * np.pi, exclude_max=True),
       st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=30))
def test_correlation_scan_random_states_stay_bounded(w, phase, angles):
    scan = correlation_scan(emit_ion_photon_state(SourceParams(w, phase)), angles)
    for series in scan.series.values():
        assert all(-1e-12 <= v <= 1.0 + 1e-12 for v in series)
    assert scan.contrast == 1.0 - w


@pytest.mark.parametrize("grid", ["0:0:3", "0:3.141592653589793:3"])
def test_grid_that_cannot_determine_a_sinusoid_reports_the_model(grid):
    # 4 theta lands on one point of the circle at every angle: the fit is
    # flagged, and the contrast is still the model's 1 - w
    start, stop, num = grid.split(":")
    pair = emit_ion_photon_state(SourceParams(pol_mixing=0.02))
    scan = correlation_scan(pair, linspace(float(start), float(stop), int(num)))
    assert scan.contrast == pytest.approx(0.98, abs=1e-15)
    assert scan.flags == ("fit_degenerate",)
    assert all(f.degenerate and f.amplitude == 0.49 for f in scan.fits.values())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_control_is_rejected(bad):
    pair = emit_ion_photon_state(SourceParams())
    with pytest.raises(ValueError, match="finite"):
        correlation_scan(pair, [0.0, bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        coherence_scan(heralded_ion_state(pair, +1), [0.0, 1.0, bad])


def test_scans_reject_the_other_register():
    pair = emit_ion_photon_state(SourceParams())
    ion = heralded_ion_state(pair, -1)
    for call in (lambda: correlation_scan(ion, HWP_GRID),
                 lambda: coherence_scan(pair, PHASE_GRID),
                 lambda: heralded_ion_state(ion, +1),
                 lambda: correlated_populations(ion),
                 lambda: heralded_ion_state(pair, 0)):
        with pytest.raises(ValueError):
            call()


def test_source_params_validation():
    with pytest.raises(ValueError):
        SourceParams(pol_mixing=1.2)
    with pytest.raises(ValueError):
        SourceParams(superposition_phase=7.0)


def test_correlation_scan_selectors_match_inline_construction():
    # the selectors of the general reference scan of tests/qutil.py
    up = np.real(np.diag(lift(P_UP, ION, PAIR_DIMS)))
    assert np.array_equal(_ION_UP, up)
    assert not _ION_UP.flags.writeable
    for _, pol in _PHOTON_POL:
        assert not pol.flags.writeable
    states = [random_density(np.random.default_rng(seed), PAIR_DIMS) for seed in range(20)]
    for state in states + [density(ket((0, 0)))]:  # the last one's photon is never V
        pops = rotated_populations(state, lift(waveplate_unitary(HWP_GRID), PHOTON,
                                               PAIR_DIMS))
        series = stacked_correlation_scan(state, HWP_GRID)
        assert list(series) == ["p_up_given_V", "p_up_given_H"]
        for label, proj_pol in (("p_up_given_V", P_UP), ("p_up_given_H", P_DOWN)):
            pol = np.real(np.diag(lift(proj_pol, PHOTON, PAIR_DIMS)))
            marginal = pops @ pol
            zero = marginal < 1e-12
            expected = np.where(zero, np.nan,
                                pops @ (up * pol) / np.where(zero, 1.0, marginal))
            assert np.array_equal(series[label], expected, equal_nan=True)
