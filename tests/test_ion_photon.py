import numpy as np
import pytest

from ionlink import ion_photon
from ionlink.config import dephasing_infidelity
from ionlink.fitting import fit_sinusoid
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
    raman_rotation,
    waveplate_unitary,
)
from ionlink.quantum import rotated_populations
from qutil import (
    ION,
    PHOTON,
    SIGMA_X,
    SIGMA_Y,
    apply_channel,
    density,
    dephasing_channel,
    fidelity_pure,
    ideal_pair_state,
    ket,
    lift,
    projected_ion_state,
    random_density,
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
    state = density(ideal_pair_state(0.0))
    scan = correlation_scan(state, np.array([0.0, np.pi / 8.0, np.pi / 4.0]))
    # at 22.5 degrees both conditionals are 1/2 by direct Born computation
    assert scan.series["p_up_given_V"][1] == pytest.approx(0.5, abs=1e-12)
    assert scan.series["p_up_given_H"][1] == pytest.approx(0.5, abs=1e-12)


def test_correlation_scan_ideal_contrast():
    state = density(ideal_pair_state(0.0))
    scan = correlation_scan(state, HWP_GRID)
    assert scan.contrast == pytest.approx(1.0, abs=1e-9)
    assert scan.series["p_up_given_V"].max() == pytest.approx(1.0, abs=1e-12)
    assert scan.series["p_up_given_V"].min() == pytest.approx(0.0, abs=1e-12)


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
    pair = emit_ion_photon_state(SourceParams(superposition_phase=0.0))
    ion = heralded_ion_state(pair, +1)
    t, t2 = 40e-6, 550e-6
    gamma = np.exp(-((t / t2) ** 2))
    dephased = apply_channel(ion, dephasing_channel(gamma))
    scan = coherence_scan(dephased, PHASE_GRID)
    assert scan.contrast == pytest.approx(gamma, abs=1e-9)
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
    state = density(ideal_pair_state(0.3))
    assert correlated_populations(state) == pytest.approx(1.0, abs=1e-12)


def test_correlation_scan_random_states_stay_bounded():
    from qutil import apply_channel, dephasing_channel, random_density
    rng = np.random.default_rng(19)
    for _ in range(5):
        state = random_density(rng, (2, 2))
        scan = correlation_scan(state, HWP_GRID)
        for series in scan.series.values():
            finite = series[np.isfinite(series)]
            assert np.all(finite >= -1e-12)
            assert np.all(finite <= 1.0 + 1e-12)
        assert scan.contrast <= 1.0 + 1e-9


def test_source_params_validation():
    with pytest.raises(ValueError):
        SourceParams(pol_mixing=1.2)
    with pytest.raises(ValueError):
        SourceParams(superposition_phase=7.0)


def _pair_states():
    """20 seeded random pair states, and one whose photon is never V."""
    states = [random_density(np.random.default_rng(seed), PAIR_DIMS) for seed in range(20)]
    return states + [density(ket((0, 0)))]


def test_herald_matches_inline_construction():
    for state in _pair_states()[:20]:
        for sign in (+1, -1):
            # the ion block <d| rho |d> of the photon state d = (|H> + sign |V>)/sqrt2
            m = state.matrix.reshape(2, 2, 2, 2)
            block = 0.5 * (m[0, :, 0] + m[1, :, 1] + sign * (m[0, :, 1] + m[1, :, 0]))
            expected = 0.5 * (block + block.conj().T) / float(np.real(np.trace(block)))
            ion = heralded_ion_state(state, sign)
            assert ion.dims == (2,)
            assert np.array_equal(ion.matrix, expected)
            assert not ion.matrix.flags.writeable
            reference = projected_ion_state(state, sign).matrix
            assert np.abs(ion.matrix - reference).max() < 1e-12


def test_correlation_scan_selectors_match_inline_construction():
    up = np.real(np.diag(lift(P_UP, ION, PAIR_DIMS)))
    assert np.array_equal(ion_photon._ION_UP, up)
    assert not ion_photon._ION_UP.flags.writeable
    for _, pol in ion_photon._PHOTON_POL:
        assert not pol.flags.writeable
    for state in _pair_states():
        pops = rotated_populations(state, lift(waveplate_unitary(HWP_GRID), PHOTON,
                                               PAIR_DIMS))
        scan = correlation_scan(state, HWP_GRID)
        assert list(scan.series) == ["p_up_given_V", "p_up_given_H"]
        for label, proj_pol in (("p_up_given_V", P_UP), ("p_up_given_H", P_DOWN)):
            pol = np.real(np.diag(lift(proj_pol, PHOTON, PAIR_DIMS)))
            marginal = pops @ pol
            zero = marginal < 1e-12
            expected = np.where(zero, np.nan,
                                pops @ (up * pol) / np.where(zero, 1.0, marginal))
            assert np.array_equal(scan.series[label], expected, equal_nan=True)
            assert scan.fits[label] == fit_sinusoid(HWP_GRID, expected, 4.0)
