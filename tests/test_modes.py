import numpy as np
import pytest
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
    coolant_coupling_report,
    equilibrium_positions,
    normal_modes,
)
from qutil import YB_BA_BA_AXIAL_DISPLACEMENT, YB_BA_BA_RADIAL_DISPLACEMENT


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

    res = minimize(potential, z + 1e-7 * ell, method="Nelder-Mead",
                   options={"xatol": 1e-15 * ell, "fatol": 1e-40, "maxiter": 20000})
    assert np.allclose(np.sort(res.x), z, rtol=1e-6)


def test_equal_mass_axial_ratios():
    table = normal_modes(spec_equal(n=3), "axial")
    ratios = table.frequencies / table.frequencies[0]
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
        b = normal_modes(spec, direction).participation
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
                b = table.participation
                assert np.max(np.abs(b.T @ b - np.eye(n))) < 1e-12
                assert np.max(table.residuals) < 1e-10


def test_cached_equilibrium_equals_a_fresh_solve_and_is_read_only():
    # the cache key is (ion count, axial spring): other masses and radial
    # references of the same chain share one solve
    for n in (1, 2, 5):
        spec = spec_equal(n=n, fz=2.3e5)
        z = equilibrium_positions(spec)
        fresh = modes._equilibrium.__wrapped__(n, spec.axial_spring)
        assert z.tobytes() == fresh.tobytes() and z.dtype == fresh.dtype
        other = ChainSpec(masses_amu=(MASS_YB_171,) * n, axial_freq_ref=2.3e5,
                          radial_freq_ref=3e6)
        assert equilibrium_positions(other) is z
        assert not z.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            z[0] = 1.0
    assert modes._equilibrium.cache_info().maxsize == 8


def test_calibrated_chain_reproduces_reference_table():
    spec = calibrate_reference_frequencies()
    ax = normal_modes(spec, "axial")
    rad = normal_modes(spec, "radial")
    assert np.max(np.abs(ax.frequencies - YB_BA_BA_AXIAL_HZ)) < 500.0
    assert np.max(np.abs(rad.frequencies - YB_BA_BA_RADIAL_HZ)) < 500.0
    for table, printed in ((ax, YB_BA_BA_AXIAL_DISPLACEMENT),
                           (rad, YB_BA_BA_RADIAL_DISPLACEMENT)):
        printed = np.asarray(printed)
        for m in range(3):
            dev = min(np.max(np.abs(table.displacement[:, m] - printed[:, m])),
                      np.max(np.abs(table.displacement[:, m] + printed[:, m])))
            assert dev < 1.1e-3  # printed values carry 3 decimals


def test_calibration_round_trip():
    truth = ChainSpec(masses_amu=YB_BA_BA_MASSES, axial_freq_ref=367e3,
                      radial_freq_ref=890e3)
    spec = calibrate_reference_frequencies(
        axial_targets_hz=normal_modes(truth, "axial").frequencies,
        radial_targets_hz=normal_modes(truth, "radial").frequencies)
    assert spec.axial_freq_ref == pytest.approx(367e3, rel=1e-12)
    assert abs(spec.radial_freq_ref - 890e3) < 1e-3


def test_calibration_matches_bounded_brent():
    spec = calibrate_reference_frequencies()
    targets = np.asarray(YB_BA_BA_RADIAL_HZ)

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


def test_coolant_coupling_equal_mass_com():
    table = normal_modes(spec_equal(n=3), "axial")
    report = coolant_coupling_report(table, coolant_index=0)
    com = [r for r in report if r.frequency == pytest.approx(table.frequencies[0])][0]
    assert com.participation == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-10)


def test_coolant_coupling_reference_chain():
    spec = calibrate_reference_frequencies()
    rad = normal_modes(spec, "radial")
    report = coolant_coupling_report(rad, coolant_index=0, floor=0.2)
    participations = [r.participation for r in report]
    # weakest coolant participation sits in the highest radial mode, ~0.178
    assert min(participations) == pytest.approx(0.178, abs=2e-3)
    assert np.argmin(participations) == 0
    flagged = [r for r in report if r.below_floor]
    assert len(flagged) == 1
    assert flagged[0].mode_index == 0


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
            freqs = normal_modes(spec, direction).frequencies
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
            freqs = normal_modes(spec, direction).frequencies
            assert np.all(np.isfinite(freqs)) and np.all(freqs > 0)


def test_masses_constants():
    assert MASS_YB_171 * AMU == pytest.approx(2.8384e-25, rel=1e-3)
    assert MASS_YB_171 > MASS_BA_138
