from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize, minimize_scalar

from ionlink import modes
from ionlink.modes import (
    AMU,
    ChainSpec,
    K_COUL,
    MASS_BA_138,
    MASS_RANGE_AMU,
    MASS_YB_171,
    REFERENCE_RANGE_HZ,
    YB_BA_BA_AXIAL_HZ,
    YB_BA_BA_MASSES,
    YB_BA_BA_RADIAL_HZ,
    calibrate_reference_frequencies,
    equilibrium_positions,
    normal_modes,
)
from qutil import (
    YB_BA_BA_AXIAL_DISPLACEMENT,
    YB_BA_BA_RADIAL_DISPLACEMENT,
    reference_equilibrium,
    reference_normal_modes,
)


def spec_equal(n=3, fz=1e5, fr=1e6):
    return ChainSpec(masses_amu=(MASS_BA_138,) * n, axial_freq_ref=fz,
                     radial_freq_ref=fr)


def test_single_ion_trivial():
    spec = spec_equal(n=1, fz=367e3, fr=890e3)
    assert equilibrium_positions(spec)[0] == 0.0
    ax = normal_modes(spec, "axial")
    rad = normal_modes(spec, "radial")
    assert ax.frequencies[0] == pytest.approx(367e3, rel=1e-12)
    assert rad.frequencies[0] == pytest.approx(890e3, rel=1e-12)


def test_two_ion_spacing_closed_form():
    spec = spec_equal(n=2)
    z = equilibrium_positions(spec)
    kappa = spec.axial_spring
    # minimizing kappa z^2 + k/(2z) gives half-spacing (k/(4 kappa))^(1/3)
    expected_half = (K_COUL / (4.0 * kappa)) ** (1.0 / 3.0)
    assert z[1] == pytest.approx(expected_half, rel=1e-10)
    assert z[0] == pytest.approx(-expected_half, rel=1e-10)


def test_three_ion_positions_match_brute_force():
    spec = spec_equal(n=3)
    z = equilibrium_positions(spec)
    kappa = spec.axial_spring
    ell = (K_COUL / kappa) ** (1.0 / 3.0)
    # classic result: outer ions at (5/4)^(1/3) length units
    assert z[2] / ell == pytest.approx((5.0 / 4.0) ** (1.0 / 3.0), rel=1e-10)
    assert z[1] == pytest.approx(0.0, abs=1e-12 * ell)

    # independent oracle: generic numerical minimization of the potential
    def potential(pos):
        u = 0.5 * kappa * np.sum(pos**2)
        for i in range(3):
            for j in range(i + 1, 3):
                u += K_COUL / abs(pos[i] - pos[j])
        return u

    res = minimize(potential, np.asarray(z) + 1e-7 * ell, method="Nelder-Mead",
                   options={"xatol": 1e-15 * ell, "fatol": 1e-40, "maxiter": 20000})
    assert np.allclose(np.sort(res.x), z, rtol=1e-6)


def test_equal_mass_axial_ratios():
    freqs = np.asarray(normal_modes(spec_equal(n=3), "axial").frequencies)
    ratios = freqs / freqs[0]
    assert ratios[0] == pytest.approx(1.0, abs=1e-12)
    assert ratios[1] == pytest.approx(np.sqrt(3.0), abs=1e-9)
    assert ratios[2] == pytest.approx(np.sqrt(29.0 / 5.0), abs=1e-9)


def test_axial_frequencies_independent_of_radial_reference():
    a = normal_modes(spec_equal(fr=8e5), "axial").frequencies
    b = normal_modes(spec_equal(fr=1.6e6), "axial").frequencies
    assert np.allclose(a, b, rtol=1e-12)


def test_orthonormality_both_relations():
    spec = ChainSpec(masses_amu=YB_BA_BA_MASSES, axial_freq_ref=3.7e5,
                     radial_freq_ref=9e5)
    for direction in ("axial", "radial"):
        b = np.asarray(normal_modes(spec, direction).participation)
        assert np.max(np.abs(b.T @ b - np.eye(3))) < 1e-10
        assert np.max(np.abs(b @ b.T - np.eye(3))) < 1e-10


def test_eigenproblem_residuals():
    spec = ChainSpec(masses_amu=YB_BA_BA_MASSES, axial_freq_ref=3.7e5,
                     radial_freq_ref=9e5)
    for direction in ("axial", "radial"):
        table = normal_modes(spec, direction)
        assert np.max(table.residuals) < 1e-10



def coulomb_net_forces(spec, z):
    """Axial force on each ion: the trap spring plus the pairwise Coulomb law."""
    return np.array([-spec.axial_spring * z[i]
                     + sum(K_COUL * np.sign(z[i] - z[j]) / (z[i] - z[j]) ** 2
                           for j in range(len(z)) if j != i)
                     for i in range(len(z))])


def test_longer_chains_with_random_masses():
    # over the whole MASS_RANGE_AMU, whose mass ratio of at most 300 keeps the
    # residual of the mass-weighted solve below 1e-10 in both directions
    rng = np.random.default_rng(2020)
    log_lo, log_hi = np.log10(MASS_RANGE_AMU)
    for n in range(2, 11):
        for _ in range(2):
            masses = tuple((10.0 ** rng.uniform(log_lo, log_hi, n)).tolist())
            spec = ChainSpec(masses_amu=masses, axial_freq_ref=1e5, radial_freq_ref=1e7)
            z = equilibrium_positions(spec)
            assert np.all(np.diff(z) > 0)
            forces = coulomb_net_forces(spec, z)
            assert np.max(np.abs(forces)) < 1e-12 * spec.axial_spring * np.max(np.abs(z))
            same_species = ChainSpec(masses_amu=(MASS_BA_138,) * n, axial_freq_ref=1e5,
                                     radial_freq_ref=1e7)
            np.testing.assert_array_equal(z, equilibrium_positions(same_species))
            for direction in ("axial", "radial"):
                table = normal_modes(spec, direction)
                b = np.asarray(table.participation)
                assert np.max(np.abs(b.T @ b - np.eye(n))) < 1e-12
                assert np.max(table.residuals) < 1e-10


# A mode whose squared frequency lies g * max(w^2) from its nearest neighbour
# is fixed by the matrix only to about eps ||D|| / gap (Davis-Kahan): over
# random chains both solvers' displacements differ by about 4e-16 / g, so
# below this relative gap neither solve determines the mode to 1e-9.
DETERMINED_GAP = 1e-5


@settings(max_examples=200, deadline=None, derandomize=True)
@given(masses=st.lists(st.floats(*MASS_RANGE_AMU), min_size=1, max_size=8),
       log_axial=st.floats(0.0, 9.0), log_ratio=st.floats(1.0, 3.0))
def test_jacobi_solve_matches_the_numpy_reference(masses, log_axial, log_ratio):
    # references over nine decades, each radial one 10 to 1000 times its axial
    # one, which keeps every chain of up to 8 ions radially stable
    axial = 10.0 ** log_axial
    spec = ChainSpec(masses_amu=tuple(masses), axial_freq_ref=axial,
                     radial_freq_ref=axial * 10.0 ** log_ratio)
    ell = (K_COUL / spec.axial_spring) ** (1.0 / 3.0)
    z = reference_equilibrium(spec.n_ions, spec.axial_spring)
    assert np.max(np.abs(np.asarray(equilibrium_positions(spec)) - z)) < 1e-12 * ell
    for direction in ("axial", "radial"):
        table = normal_modes(spec, direction)
        ref = reference_normal_modes(spec, direction)
        np.testing.assert_allclose(table.frequencies, ref.frequencies, rtol=1e-10, atol=0)
        assert max(table.residuals) < 1e-10
        w2 = ref.frequencies ** 2
        disp = np.asarray(table.displacement)
        for k, want in enumerate(ref.displacement.T):
            gap = np.min(np.abs(np.delete(w2, k) - w2[k]), initial=np.inf)
            if gap > DETERMINED_GAP * w2.max():
                assert min(np.max(np.abs(disp[:, k] - want)),
                           np.max(np.abs(disp[:, k] + want))) < 1e-9


def test_equilibrium_is_a_read_only_tuple_of_floats():
    for n in (1, 2, 5):
        z = equilibrium_positions(spec_equal(n=n, fz=2.3e5))
        assert isinstance(z, tuple) and all(type(x) is float for x in z)
        with pytest.raises(TypeError, match="does not support item assignment"):
            z[0] = 1.0


def test_long_equal_mass_chains_reach_equilibrium():
    # the force's round-off floor grows with the chain (1.1e-14 at 14 ions,
    # 2.5e-14 at 20), so a fixed 1e-14 stop never came at 15 ions or more
    for n in range(1, 31):
        spec = spec_equal(n=n, fz=2.3e5)
        ell = (K_COUL / spec.axial_spring) ** (1.0 / 3.0)
        z = reference_equilibrium(n, spec.axial_spring)
        assert np.max(np.abs(np.asarray(equilibrium_positions(spec)) - z)) < 1e-12 * ell


def test_mode_tables_compare_and_hash_by_value():
    # every field is a tuple, so two solves of one chain are equal
    a, b = (normal_modes(spec_equal(n=2), "radial") for _ in range(2))
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != normal_modes(spec_equal(n=2, fr=2e6), "radial")


def test_calibrated_chain_reproduces_reference_table():
    spec = calibrate_reference_frequencies()
    ax = normal_modes(spec, "axial")
    rad = normal_modes(spec, "radial")
    assert np.max(np.abs(np.asarray(ax.frequencies) - YB_BA_BA_AXIAL_HZ)) < 500.0
    assert np.max(np.abs(np.asarray(rad.frequencies) - YB_BA_BA_RADIAL_HZ)) < 500.0
    for table, printed in ((ax, YB_BA_BA_AXIAL_DISPLACEMENT),
                           (rad, YB_BA_BA_RADIAL_DISPLACEMENT)):
        printed = np.asarray(printed)
        disp = np.asarray(table.displacement)
        for m in range(3):
            dev = min(np.max(np.abs(disp[:, m] - printed[:, m])),
                      np.max(np.abs(disp[:, m] + printed[:, m])))
            assert dev < 1.1e-3  # printed values carry 3 decimals


def test_calibration_round_trip():
    truth = ChainSpec(masses_amu=YB_BA_BA_MASSES, axial_freq_ref=367e3,
                      radial_freq_ref=890e3)
    spec = calibrate_reference_frequencies(
        axial_targets_hz=normal_modes(truth, "axial").frequencies,
        radial_targets_hz=normal_modes(truth, "radial").frequencies)
    assert spec.axial_freq_ref == pytest.approx(367e3, rel=1e-12)
    assert abs(spec.radial_freq_ref - 890e3) < 1e-3


# radial tables, Hz: the measured one, three off it, and one where undamped
# Gauss-Newton steps overshoot further each time, so the bracket must bisect
BRENT_TABLES = (YB_BA_BA_RADIAL_HZ, (300e3, 250e3, 200e3), (600e3, 500e3, 400e3),
                (700e3, 600e3, 500e3), (212e3, 196e3, 165e3))


def test_calibration_matches_bounded_brent():
    for table in BRENT_TABLES:
        spec = calibrate_reference_frequencies(radial_targets_hz=table)
        targets = np.asarray(table)

        def cost(fr):
            trial = ChainSpec(masses_amu=YB_BA_BA_MASSES,
                              axial_freq_ref=spec.axial_freq_ref, radial_freq_ref=fr)
            try:
                freqs = normal_modes(trial, "radial").frequencies
            except ValueError:
                return 1e30
            return float(np.sum((freqs - targets) ** 2))

        # Brent's stopping width here is 1e-4 + sqrt(eps) * x, about 0.013 Hz
        ref = minimize_scalar(cost, bounds=(0.5 * targets.max(), 3.0 * targets.max()),
                              method="bounded", options={"xatol": 1e-4})
        assert abs(spec.radial_freq_ref - ref.x) < 0.05


def test_calibration_takes_few_radial_solves(monkeypatch):
    solved = []
    solve = modes.normal_modes

    def counted(spec, direction):
        solved.append(direction)
        return solve(spec, direction)

    monkeypatch.setattr(modes, "normal_modes", counted)
    calibrate_reference_frequencies()
    assert 1 <= solved.count("radial") <= 8


def test_calibration_stops_at_the_cost_round_off_floor():
    # the minimum of the quadratic fitted to the cost over +-3 mHz lies
    # within 1.5e-4 Hz of the result, about where the cost's round-off noise
    # (sd 5.5e-8 Hz^2) matches its quadratic rise (curvature 3.45)
    spec = calibrate_reference_frequencies()
    targets = np.asarray(YB_BA_BA_RADIAL_HZ)
    offsets = np.linspace(-3e-3, 3e-3, 61)
    costs = [np.sum((np.asarray(normal_modes(
        replace(spec, radial_freq_ref=spec.radial_freq_ref + x), "radial").frequencies)
        - targets) ** 2) for x in offsets]
    a, b, _ = np.polyfit(offsets, np.asarray(costs) - costs[30], 2)
    assert abs(b / (2.0 * a)) < 1.5e-4


def test_coolant_coupling_equal_mass_com():
    table = normal_modes(spec_equal(n=3), "axial")
    # the coolant (ion 0) moves by 1/sqrt(3) in the centre-of-mass mode
    assert abs(table.displacement[0][0]) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-10)


def test_coolant_coupling_reference_chain():
    summary = modes.modes_outputs(calibrate_reference_frequencies())["modes_summary.json"]
    participations = [c["participation"] for c in summary["radial_coolant_coupling"]]
    # weakest coolant participation sits in the highest radial mode, ~0.178
    assert min(participations) == pytest.approx(0.178, abs=2e-3)
    assert np.argmin(participations) == 0


def test_radial_instability_reported_by_mode():
    spec = ChainSpec(masses_amu=YB_BA_BA_MASSES, axial_freq_ref=9e5,
                     radial_freq_ref=3e5)
    with pytest.raises(ValueError, match="radial mode"):
        normal_modes(spec, "radial")


@pytest.mark.filterwarnings("error")
def test_chain_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(masses_amu=(), axial_freq_ref=1e5, radial_freq_ref=1e6)
    with pytest.raises(ValueError):
        ChainSpec(masses_amu=(100.0,), axial_freq_ref=-1.0, radial_freq_ref=1e6)
    # past MASS_RANGE_AMU a NaN mass solves to NaN frequencies, an infinite
    # reference mass divides by zero and 1e300 overflows the mass weighting
    for masses, reference in (((np.nan, MASS_BA_138), MASS_BA_138),
                              ((MASS_BA_138, np.inf), MASS_BA_138),
                              ((1e300,), MASS_BA_138), ((0.0,), MASS_BA_138),
                              ((-1.0, MASS_BA_138), MASS_BA_138),
                              ((MASS_BA_138,), np.nan), ((MASS_BA_138,), np.inf),
                              ((MASS_BA_138,), 1e300), ((MASS_BA_138,), 0.0)):
        with pytest.raises(ValueError, match="masses must be within"):
            ChainSpec(masses_amu=masses, axial_freq_ref=1e5, radial_freq_ref=1e6,
                      reference_mass_amu=reference)


@pytest.mark.filterwarnings("error")
def test_mass_range_ends_solve():
    lo, hi = MASS_RANGE_AMU
    for masses, reference in (((lo, lo), lo), ((hi, hi), hi), ((hi,), lo)):
        spec = ChainSpec(masses_amu=masses, axial_freq_ref=1e5, radial_freq_ref=1e6,
                         reference_mass_amu=reference)
        for direction in ("axial", "radial"):
            freqs = np.asarray(normal_modes(spec, direction).frequencies)
            assert np.all(np.isfinite(freqs)) and np.all(freqs > 0)


@pytest.mark.parametrize("refs", [(1e300, 1e300), (1e-300, 1e-300), (3.7e5, 1e300),
                                  (0.5, 9e5), (np.nan, 9e5), (3.7e5, np.inf)])
def test_chain_spec_rejects_references_out_of_range(refs):
    # past REFERENCE_RANGE_HZ the spring constants overflow (1e300) or the
    # Coulomb length divides by zero (1e-300) inside the solve
    with pytest.raises(ValueError, match="must be within"):
        ChainSpec(masses_amu=YB_BA_BA_MASSES, axial_freq_ref=refs[0],
                  radial_freq_ref=refs[1])


def test_reference_range_ends_solve():
    lo, hi = REFERENCE_RANGE_HZ
    for axial, radial in ((lo, 10.0 * lo), (hi / 10.0, hi)):
        spec = ChainSpec(masses_amu=YB_BA_BA_MASSES, axial_freq_ref=axial,
                         radial_freq_ref=radial)
        for direction in ("axial", "radial"):
            freqs = np.asarray(normal_modes(spec, direction).frequencies)
            assert np.all(np.isfinite(freqs)) and np.all(freqs > 0)


def test_masses_constants():
    assert MASS_YB_171 * AMU == pytest.approx(2.8384e-25, rel=1e-3)
    assert MASS_YB_171 > MASS_BA_138
