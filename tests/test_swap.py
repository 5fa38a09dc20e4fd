from dataclasses import replace

import numpy as np
import pytest

from ionlink.config import HardwareConfig, ideal_config
from ionlink.swap import (
    aligned_state_from_config,
    alignment_wait,
    phase_alignment_delay,
    swapped_state,
)
from qutil import bell_phase, bell_state, density, fidelity_pure, partial_trace

TWO_PI = 2.0 * np.pi


def test_alignment_wait_is_the_delay_each_sign_is_analyzed_at():
    cfg = HardwareConfig()
    waits = {sign: alignment_wait(cfg, sign) for sign in (+1, -1)}
    assert waits == pytest.approx({+1: 731.1e-6, -1: 222.9e-6}, abs=0.1e-6)
    for sign, t in waits.items():
        np.testing.assert_array_equal(aligned_state_from_config(cfg, sign).matrix,
                                      swapped_state(cfg, sign, t).matrix)
    with pytest.raises(ValueError, match="sign"):
        alignment_wait(cfg, 0)


def test_bell_phase_values():
    assert bell_phase(1.0, 0.0, 0.0) == 0.0
    delta = TWO_PI * 984.0
    assert bell_phase(delta, 210e-6, 0.0) == pytest.approx(1.298, abs=1e-3)
    assert bell_phase(1.0, 0.0, 0.48 - 5.00) == pytest.approx(1.763, abs=1e-3)


def test_phase_alignment_delay():
    assert phase_alignment_delay(TWO_PI * 1000.0, 0.0) == 0.0
    assert phase_alignment_delay(TWO_PI * 1000.0, np.pi) == pytest.approx(5e-4,
                                                                          abs=1e-12)
    # reference source phases and frequency difference align at 731 us, not at
    # the reference 210 us wait; the discrepancy is documented, not hidden
    delta = TWO_PI * 984.0
    t = phase_alignment_delay(delta, 0.48 - 5.00)
    assert t == pytest.approx(731e-6, abs=1e-6)
    # aligning to pi instead lands within a few percent of the reference wait
    t_pi = phase_alignment_delay(delta, 0.48 - 5.00, target=np.pi)
    assert t_pi == pytest.approx(223e-6, abs=1e-6)
    with pytest.raises(ValueError):
        phase_alignment_delay(0.0, 1.0)
    assert phase_alignment_delay(0.0, 0.0) == 0.0
    assert phase_alignment_delay(-delta, 1.0) > 0.0
    assert phase_alignment_delay(-delta, 0.0) == 0.0
    # negative delta winds the other way: delta*t lands at -(2pi - phase)
    t_neg = phase_alignment_delay(-delta, 1.0)
    assert (-delta * t_neg + 1.0) % TWO_PI == pytest.approx(0.0, abs=1e-9)


def test_all_ideal_heralds_exact_bell_state():
    cfg = ideal_config()
    for sign in (+1, -1):
        rho = aligned_state_from_config(cfg, sign=sign)
        assert fidelity_pure(rho, bell_state(+1, 0.0)) == pytest.approx(1.0,
                                                                        abs=1e-12)


def test_phase_tracking_target_all_ideal():
    cfg = ideal_config()
    t = 123e-6
    for sign in (+1, -1):
        rho = swapped_state(cfg, sign, t)
        target = bell_state(sign, bell_phase(cfg.delta, t, cfg.swap_phase()))
        assert fidelity_pure(rho, target) == pytest.approx(1.0, abs=1e-12)


def test_tiny_source_phase_folds_to_zero():
    # -1e-300 mod 2*pi rounds to 2*pi, outside a source phase's range
    cfg = replace(ideal_config(), phi_a=0.0, phi_b=0.0)
    for field in ("phi_a", "phi_b"):
        tiny = replace(cfg, **{field: 1e-300})
        for sign in (+1, -1):
            np.testing.assert_allclose(swapped_state(tiny, sign, 0.0).matrix,
                                       swapped_state(cfg, sign, 0.0).matrix,
                                       rtol=0, atol=1e-15)


def test_polarization_mixing_werner_oracle():
    # hand-derived closed form: depolarizing each photon with strength p_j
    # makes each pair a Werner state, and the herald projects the 4-qubit
    # product onto (1-w) |Bell><Bell| + w I/4 with w = 1 - (1-pA)(1-pB)
    rng = np.random.default_rng(8)
    for _ in range(4):
        pa, pb = rng.uniform(0.0, 0.5, size=2)
        cfg = replace(ideal_config(), pol_mixing_a=pa, pol_mixing_b=pb,
                      phi_a=0.0, phi_b=0.0)
        rho = swapped_state(cfg, +1, 0.0)
        w = 1.0 - (1.0 - pa) * (1.0 - pb)
        expected = ((1.0 - w) * density(bell_state(+1, 0.0)).matrix
                    + w * np.eye(4) / 4.0)
        assert np.allclose(rho.matrix, expected, atol=1e-12)


def test_default_profile_matches_reference_levels():
    cfg = HardwareConfig()
    t = cfg.analysis_delay
    rho = swapped_state(cfg, +1, t)
    target = bell_state(+1, bell_phase(cfg.delta, t, cfg.swap_phase()))
    fid = fidelity_pure(rho, target)
    # predicted infidelity budget totals ~3.6%
    assert fid == pytest.approx(0.964, abs=0.002)
    pops = np.real(np.diag(rho.matrix))
    assert pops[1] + pops[2] >= 0.97


def test_fidelity_monotone_in_error_parameters():
    cfg = HardwareConfig()
    t = cfg.analysis_delay

    def fid(c):
        rho = swapped_state(c, +1, t)
        return fidelity_pure(rho, bell_state(+1, bell_phase(c.delta, t,
                                                            c.swap_phase())))

    base = fid(cfg)
    worse = [
        replace(cfg, pol_mixing_a=cfg.pol_mixing_a + 0.05),
        replace(cfg, pol_mixing_b=cfg.pol_mixing_b + 0.05),
        replace(cfg, temporal_overlap=cfg.temporal_overlap - 0.05),
        replace(cfg, dark_count_prob=cfg.dark_count_prob * 10),
        replace(cfg, double_excitation_prob=0.01),
        replace(cfg, t2_star_bell=cfg.t2_star_bell / 10),
    ]
    for c in worse:
        assert fid(c) < base + 1e-12


def test_reduced_states_are_maximally_mixed():
    for sign in (+1, -1):
        rho = density(bell_state(sign, 0.7))
        for keep in ([0], [1]):
            red = partial_trace(rho, keep)
            assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)
