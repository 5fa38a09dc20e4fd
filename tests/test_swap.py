from dataclasses import replace

import numpy as np
import pytest

from ionlink import swap
from ionlink.config import HardwareConfig, ideal_config
from ionlink.ion_photon import emit_ion_photon_state
from ionlink.quantum import (
    DensityMatrix,
    apply_channel,
    apply_unitary,
    dephasing_channel,
    fidelity_pure,
    partial_trace,
    tensor,
)
from ionlink.swap import (
    FULL_DIMS,
    TWO_ION_DIMS,
    HeraldStats,
    aligned_state_from_config,
    bell_phase,
    bell_state,
    phase_alignment_delay,
    simulate_heralds,
    success_probability,
    swapped_state,
    swapped_state_from_config,
)

TWO_PI = 2.0 * np.pi


def test_success_probability_values():
    assert success_probability(1.0, 1.0) == 0.5
    assert success_probability(0.0, 0.7) == 0.0
    # measured efficiencies give the reference 2.50(16)e-4 herald probability
    assert success_probability(0.023, 0.022) == pytest.approx(2.53e-4, abs=1e-6)


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
        rho = swapped_state_from_config(cfg, sign=sign, t=t)
        target = bell_state(sign, bell_phase(cfg.delta, t, cfg.swap_phase()))
        assert fidelity_pure(rho, target) == pytest.approx(1.0, abs=1e-12)


def test_swap_phase_convention_switch():
    base = ideal_config()
    for conv in ("b_minus_a", "a_minus_b"):
        cfg = replace(base, swap_phase_convention=conv)
        rho = aligned_state_from_config(cfg, sign=+1)
        assert fidelity_pure(rho, bell_state(+1, 0.0)) == pytest.approx(1.0,
                                                                        abs=1e-12)


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
        expected = ((1.0 - w) * bell_state(+1, 0.0).density().matrix
                    + w * np.eye(4) / 4.0)
        assert np.allclose(rho.matrix, expected, atol=1e-12)


def test_default_profile_matches_reference_levels():
    cfg = HardwareConfig()
    t = cfg.analysis_delay
    rho = swapped_state_from_config(cfg, sign=+1, t=t)
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
        rho = swapped_state_from_config(c, sign=+1, t=t)
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
        rho = bell_state(sign, 0.7).density()
        for keep in ([0], [1]):
            red = partial_trace(rho, keep)
            assert np.allclose(red.matrix, np.eye(2) / 2, atol=1e-12)


def test_herald_fraction_matches_half_eta_product():
    eta_a, eta_b = 0.023, 0.022
    attempts = 1_000_000
    stats = simulate_heralds(eta_a, eta_b, attempts, np.random.default_rng(5))
    expected = success_probability(eta_a, eta_b)
    sigma = np.sqrt(expected * (1 - expected) / attempts)
    assert abs(stats.herald_fraction - expected) < 3 * sigma
    # herald signs are balanced
    assert abs(stats.plus_signs - stats.heralds / 2) < 3 * np.sqrt(stats.heralds / 4)


def _literal_swapped_state(cfg, sign, t):
    """``swapped_state`` step by step, with both pairs emitted and tensored
    for this sign alone."""
    orientation = 1.0 if cfg.swap_phase_convention == "a_minus_b" else -1.0
    pair_a, pair_b = (emit_ion_photon_state(replace(
        src, superposition_phase=(orientation * src.superposition_phase) % TWO_PI))
        for src in (cfg.source_a(), cfg.source_b()))
    full = tensor(pair_a, pair_b)
    proj = swap._photon_bell_herald_projector(sign)
    weighted = proj @ full.matrix @ proj
    w = float(np.real(np.trace(weighted)))
    heralded = DensityMatrix(0.5 * (weighted + weighted.conj().T) / w, FULL_DIMS)
    ions = partial_trace(heralded, keep=[swap.ION_A, swap.ION_B])
    half = 0.5 * cfg.delta * t
    ions = apply_unitary(ions, np.kron(np.diag([1.0, np.exp(-1j * half)]),
                                       np.diag([1.0, np.exp(+1j * half)])))
    gamma = cfg.bell_coherence_factor(t)
    if gamma < 1.0:
        ions = apply_channel(ions, dephasing_channel(gamma).on_subsystem(0, TWO_ION_DIMS))
    if cfg.temporal_overlap < 1.0:
        ions = apply_channel(
            ions, dephasing_channel(cfg.temporal_overlap).on_subsystem(0, TWO_ION_DIMS))
    mat = ions.matrix.copy()
    w_dark = cfg.dark_herald_weight()
    if w_dark > 0.0:
        mat = (1.0 - w_dark) * mat + w_dark * np.eye(4) / 4.0
    if cfg.double_excitation_prob > 0.0:
        w_x = cfg.double_excitation_prob
        mat = (1.0 - w_x) * mat + w_x * np.eye(4) / 4.0
    return DensityMatrix(mat, TWO_ION_DIMS)


@pytest.mark.parametrize("convention", ["b_minus_a", "a_minus_b"])
def test_both_herald_signs_share_one_pair_product(convention):
    cache = swap._emitted_pairs
    orientation = 1.0 if convention == "a_minus_b" else -1.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        cfg = replace(HardwareConfig(), swap_phase_convention=convention,
                      pol_mixing_a=rng.uniform(0.0, 0.2),
                      pol_mixing_b=rng.uniform(0.0, 0.2),
                      phi_a=rng.uniform(0.0, TWO_PI), phi_b=rng.uniform(0.0, TWO_PI),
                      delta_hz=rng.uniform(0.0, 2000.0),
                      t2_star_bell=rng.uniform(1e-3, 80e-3),
                      temporal_overlap=rng.uniform(0.9, 1.0))
        t = rng.uniform(0.0, 1e-3)
        before = cache.cache_info()
        for sign, extra_hits in ((+1, 0), (-1, 1)):
            rho = swapped_state(cfg, sign, t)
            info = cache.cache_info()
            assert (info.misses, info.hits) == (before.misses + 1,
                                                before.hits + extra_hits)
            assert np.array_equal(rho.matrix, _literal_swapped_state(cfg, sign, t).matrix)
        sources = [replace(src, superposition_phase=(
            orientation * src.superposition_phase) % TWO_PI)
            for src in (cfg.source_a(), cfg.source_b())]
        shared = cache(*sources)
        assert not shared.matrix.flags.writeable
        assert np.array_equal(shared.matrix, tensor(
            *(emit_ion_photon_state(src) for src in sources)).matrix)
        assert cache.cache_info().currsize <= cache.cache_info().maxsize
