"""Stacked scans against per-point oracles, stack validation, and property
tests of the density-matrix layer on random valid inputs."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ionlink.analysis import apply_analysis_pulse, bright_classes, parity_scan
from ionlink.config import HardwareConfig
from ionlink.ion_photon import (
    SourceParams,
    coherence_scan,
    correlated_populations,
    correlation_scan,
    emit_ion_photon_state,
    heralded_ion_state,
)
from ionlink.quantum import DensityMatrix, apply_unitary, validate_density
from qutil import (
    _pulse_stack,
    analysis_sequence,
    apply_channel,
    bright_populations,
    channel_emitted_pair,
    conjugate,
    density,
    dephasing_channel,
    depolarizing_channel,
    fit_sinusoid,
    ket,
    lift,
    literal_swapped_state,
    loop_coherence_scan,
    loop_correlation_scan,
    loop_parity_scan,
    partial_trace,
    projected_ion_state,
    reference_validate_density,
    rotated_populations,
    stacked_coherence_scan,
    stacked_correlation_scan,
    stacked_parity_scan,
    tensor,
)
from ionlink.swap import XState, swapped_state

# fixed examples and no timing checks, so a loaded machine cannot fail a run
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

unit_floats = st.floats(-1.0, 1.0)
grids = arrays(float, st.integers(3, 30), elements=st.floats(-2.0 * np.pi, 2.0 * np.pi))


@st.composite
def unitaries(draw, d, count=None):
    shape = (2, d, d) if count is None else (2, count, d, d)
    z = draw(arrays(float, shape, elements=unit_floats))
    q, _ = np.linalg.qr(z[0] + 1j * z[1])
    return q


@st.composite
def states(draw, dims, floor=0.0):
    """``U diag(w) U^dag`` with weights ``w >= floor`` normalized to trace 1."""
    d = math.prod(dims)
    weights = draw(arrays(float, d, elements=st.floats(floor, 1.0)))
    assume(weights.sum() > 1e-3)
    u = draw(unitaries(d))
    mat = u @ np.diag(weights / weights.sum()) @ u.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    return DensityMatrix(mat / mat.trace().real, dims)


def assert_valid(rho: DensityMatrix) -> None:
    d = math.prod(rho.dims)
    assert rho.matrix.shape == (d, d)
    validate_density(rho.matrix)


@st.composite
def x_states(draw):
    """An X state ``(w, c)``: ``|c|`` up to its PSD limit ``1/2 - w/4``, at any
    phase, with the limit and the edges of ``w`` drawn often."""
    w = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    scale = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    phase = draw(st.floats(0.0, 2.0 * np.pi))
    return XState(w, scale * (0.5 - 0.25 * w) * complex(np.cos(phase), np.sin(phase)))


@PROPERTY
@given(x_states())
def test_x_state_within_its_limits_is_a_density_matrix(rho):
    validate_density(rho.matrix)


@pytest.mark.parametrize("w,c", [(-1e-9, 0.0), (1.0 + 1e-9, 0.0), (np.nan, 0.0),
                                 (0.0, complex(np.nan, 0.0)), (0.0, 0.5 + 1e-9),
                                 (1.0, 0.25j * (1.0 + 1e-9)), (0.4, -0.41)])
def test_x_state_past_its_limits_is_rejected_when_built(w, c):
    with pytest.raises(ValueError, match="not a density matrix"):
        XState(w, c)


# --- stacked scans against one apply_unitary per grid point ---------------------

@PROPERTY
@given(x_states(), grids, st.sampled_from(["one", "two"]))
def test_parity_scan_matches_loop_oracle(rho, phases, pulses):
    got = parity_scan(rho, phases, pulses=pulses).series["parity"]
    np.testing.assert_allclose(got, loop_parity_scan(DensityMatrix(rho.matrix, rho.dims),
                                                     phases, pulses),
                               rtol=0, atol=1e-12)


@PROPERTY
@given(x_states(), grids, st.sampled_from(["none", "one", "two"]))
def test_bright_classes_equal_the_stacked_reference(rho, phases, pulses):
    """The closed-form readout classes of an X state against the classes of
    its matrix after the stacked pulses (no pulse: the matrix diagonal)."""
    got = [bright_classes(rho, pulses, x) for x in phases]
    pops = (np.tile(np.real(np.diag(rho.matrix)), (len(phases), 1)) if pulses == "none"
            else analysis_sequence(DensityMatrix(rho.matrix, rho.dims), phases, pulses))
    np.testing.assert_allclose(got, bright_populations(pops), rtol=0, atol=1e-12)


@PROPERTY
@given(x_states(), grids, st.sampled_from(["one", "two"]))
def test_parity_scan_fit_is_exact(rho, phases, pulses):
    """The exact fit reproduces the scan's series, and equals the least
    squares fit of it on well-conditioned grids."""
    scan = parity_scan(rho, phases, pulses=pulses)
    fit = scan.fits["parity"]
    model = fit.offset + fit.amplitude * np.sin(2.0 * phases - fit.phase)
    np.testing.assert_allclose(scan.series["parity"], model, rtol=0, atol=1e-12)
    assert fit.residual_rms == 0.0 and scan.contrast == fit.amplitude
    design = np.column_stack([np.sin(2.0 * phases), np.cos(2.0 * phases), np.ones_like(phases)])
    sv = np.linalg.svd(design, compute_uv=False)
    if sv[-1] >= 1e-3 * sv[0]:
        want = fit_sinusoid(phases, scan.series["parity"], 2.0)
        assert fit.amplitude == pytest.approx(want.amplitude, rel=0, abs=1e-12)
        assert fit.offset == pytest.approx(want.offset, rel=0, abs=1e-12)
        assert scan.flags == (("fit_degenerate",) if fit.amplitude < 1e-14 else ())


@PROPERTY
@given(states((2, 2)), grids)
def test_folded_two_pulse_stack_equals_pulse_then_stack(rho, phases):
    stepwise = conjugate(apply_analysis_pulse(rho, 0.0), _pulse_stack(phases))
    np.testing.assert_allclose(analysis_sequence(rho, phases, "two"),
                               np.real(np.diagonal(stepwise, axis1=-2, axis2=-1)),
                               rtol=0, atol=1e-12)


@PROPERTY
@given(states((2, 2), floor=0.01), states((2,)), grids, st.sampled_from(["one", "two"]))
def test_stacked_reference_scans_match_loop_oracles(pair, ion, phases, pulses):
    want_v, want_h = loop_correlation_scan(pair, phases)
    series = stacked_correlation_scan(pair, phases)
    np.testing.assert_allclose(series["p_up_given_V"], want_v, rtol=0, atol=1e-12)
    np.testing.assert_allclose(series["p_up_given_H"], want_h, rtol=0, atol=1e-12)
    np.testing.assert_allclose(stacked_coherence_scan(ion, phases),
                               loop_coherence_scan(ion, phases), rtol=0, atol=1e-12)
    two_ions = DensityMatrix(pair.matrix, (2, 2))
    np.testing.assert_allclose(stacked_parity_scan(two_ions, phases, pulses),
                               loop_parity_scan(two_ions, phases, pulses), rtol=0, atol=1e-12)


def test_stacked_correlation_scan_zero_marginal_is_nan():
    # photon in H: the V branch is empty at plate angles 0 and pi/2, the H
    # branch at pi/4
    state = density(ket((0, 0)))  # ion down, photon H
    angles = np.linspace(0.0, np.pi / 2.0, 7)
    series = stacked_correlation_scan(state, angles)
    assert np.flatnonzero(np.isnan(series["p_up_given_V"])).tolist() == [0, 6]
    assert np.flatnonzero(np.isnan(series["p_up_given_H"])).tolist() == [3]
    want_v, want_h = loop_correlation_scan(state, angles)
    np.testing.assert_allclose(series["p_up_given_V"], want_v, atol=1e-12)
    np.testing.assert_allclose(series["p_up_given_H"], want_h, atol=1e-12)


@PROPERTY
@given(arrays(complex, st.tuples(st.integers(1, 5), st.just(2), st.just(2)),
              elements=st.complex_numbers(max_magnitude=10.0, allow_nan=False,
                                          allow_infinity=False)),
       st.sampled_from([(2,), (2, 2), (2, 2, 2, 2)]), st.data())
def test_stacked_lift_equals_kron(ops, dims, data):
    index = data.draw(st.integers(0, len(dims) - 1))
    low, high = math.prod(dims[:index]), math.prod(dims[index + 1:])
    lifted = lift(ops, index, dims)
    assert lifted.shape == (len(ops), math.prod(dims), math.prod(dims))
    for op, got in zip(ops, lifted):
        want = np.kron(np.eye(high), np.kron(op, np.eye(low)))
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(lift(op, index, dims), want)


# --- one validation call per stack ------------------------------------------------

def _bad_member(kind: str, good: np.ndarray) -> np.ndarray:
    if kind == "hermitian":
        bad = good.copy()
        bad[0, 1] += 1e-6
        return bad
    if kind == "trace":
        return 1.5 * good
    # Hermitian, trace one, one eigenvalue -1e-9
    vals, vecs = np.linalg.eigh(good)
    vals = np.array([1.0 + 1e-9, -1e-9] + [0.0] * (len(vals) - 2))
    bad = vecs @ np.diag(vals) @ vecs.conj().T
    return 0.5 * (bad + bad.conj().T)


@PROPERTY
@given(st.lists(states((2, 2)), min_size=1, max_size=6), st.data(),
       st.sampled_from(["hermitian", "trace", "psd"]))
def test_stack_rejects_its_one_bad_member_like_a_single_state(members, data, kind):
    k = data.draw(st.integers(0, len(members) - 1))
    bad = _bad_member(kind, members[k].matrix)
    with pytest.raises(ValueError) as single:
        DensityMatrix(bad, (2, 2))
    assert {"hermitian": "Hermitian", "trace": "trace",
            "psd": "semidefinite"}[kind] in str(single.value)
    stack = np.stack([m.matrix for m in members])
    validate_density(stack)
    stack[k] = bad
    for shaped in (stack, stack[None]):
        with pytest.raises(ValueError) as batched:
            validate_density(shaped)
        assert str(batched.value) == str(single.value)


def test_conjugate_checks_every_member():
    rho = DensityMatrix(np.eye(2) / 2, (2,))
    stack = np.stack([np.eye(2), 2.0 * np.eye(2), np.eye(2)])
    with pytest.raises(ValueError, match="trace"):
        conjugate(rho, stack)


# --- outputs of every operation pass full validation ------------------------------

@PROPERTY
@given(states((2,)), states((2, 2)))
def test_tensor_output_valid(a, b):
    for out in (tensor(a, b), tensor(b, a), tensor(a, a)):
        assert_valid(out)


@PROPERTY
@given(states((2, 2, 2)), st.sets(st.integers(0, 2), min_size=1))
def test_partial_trace_output_valid(rho, keep):
    assert_valid(partial_trace(rho, keep))


@PROPERTY
@given(states((2, 2)), unitaries(4))
def test_apply_unitary_output_valid(rho, u):
    assert_valid(apply_unitary(rho, u))


@PROPERTY
@given(states((2, 2)), st.floats(0.0, 1.0), st.floats(-1.0, 1.0), st.integers(0, 1))
def test_apply_lifted_channels_output_valid(rho, p, lam, index):
    for channel in (depolarizing_channel(p), dephasing_channel(lam)):
        assert_valid(apply_channel(rho, channel.on_subsystem(index, (2, 2))))


@PROPERTY
@given(states((2, 2)), st.integers(1, 6).flatmap(lambda n: unitaries(4, n)))
def test_conjugate_output_valid_and_matches_apply_unitary(rho, us):
    out = conjugate(rho, us)
    validate_density(out)
    assert out.shape == (len(us), 4, 4) and not out.flags.writeable
    for u, got in zip(us, out):
        np.testing.assert_allclose(got, apply_unitary(rho, u).matrix, rtol=0, atol=1e-12)


@PROPERTY
@given(st.sampled_from([(2,), (2, 2)]), st.integers(0, 6), st.data())
def test_rotated_populations_equal_diagonal_of_conjugated_states(dims, count, data):
    rho = data.draw(states(dims))
    d = rho.matrix.shape[0]
    us = data.draw(unitaries(d, count))
    got = rotated_populations(rho, us)
    assert got.shape == (len(us), d) and got.dtype == float
    np.testing.assert_allclose(got, np.diagonal(conjugate(rho, us), axis1=-2, axis2=-1),
                               rtol=0, atol=1e-12)


# --- closed forms against the register-level Kraus reference ----------------------

phases = st.floats(0.0, 2.0 * np.pi, exclude_max=True)
signs = st.sampled_from([+1, -1])


def pair_and_ion(w, phase, sign):
    """A source's emitted pair and its herald of ``sign``, with each as the
    ``DensityMatrix`` of its ``matrix``."""
    pair = emit_ion_photon_state(SourceParams(pol_mixing=w, superposition_phase=phase))
    ion = heralded_ion_state(pair, sign)
    return pair, ion, DensityMatrix(pair.matrix, pair.dims), DensityMatrix(ion.matrix, ion.dims)


@PROPERTY
@given(st.floats(0.0, 1.0), phases)
def test_emission_matches_photon_depolarizing_channel(p, phase):
    source = SourceParams(pol_mixing=p, superposition_phase=phase)
    np.testing.assert_allclose(emit_ion_photon_state(source).matrix,
                               channel_emitted_pair(p, phase).matrix, rtol=0, atol=1e-12)


@PROPERTY
@given(st.floats(0.0, 1.0), phases, signs)
def test_herald_matches_projector_reference(w, phase, sign):
    _, ion, pair_rho, _ = pair_and_ion(w, phase, sign)
    np.testing.assert_allclose(ion.matrix, projected_ion_state(pair_rho, sign).matrix,
                               rtol=0, atol=1e-12)


@PROPERTY
@given(st.floats(0.0, 1.0), phases, signs)
def test_every_state_matrix_is_a_density_matrix(w, phase, sign):
    pair, ion, _, _ = pair_and_ion(w, phase, sign)
    for state in (pair, ion):
        m = state.matrix
        assert m.shape == (math.prod(state.dims),) * 2 and not m.flags.writeable
        reference_validate_density(m)  # trace, Hermiticity and PSD
    assert correlated_populations(pair) == pytest.approx(
        np.real(pair.matrix[0, 0] + pair.matrix[3, 3]), rel=0, abs=1e-12)


@PROPERTY
@given(st.floats(0.0, 1.0), phases, grids)
def test_correlation_scan_matches_loop_oracle(w, phase, angles):
    pair, _, pair_rho, _ = pair_and_ion(w, phase, +1)
    scan = correlation_scan(pair, angles)
    want_v, want_h = loop_correlation_scan(pair_rho, angles)
    np.testing.assert_allclose(scan.series["p_up_given_V"], want_v, rtol=0, atol=1e-12)
    np.testing.assert_allclose(scan.series["p_up_given_H"], want_h, rtol=0, atol=1e-12)
    assert scan.control == angles.tolist()


@PROPERTY
@given(st.floats(0.0, 1.0), phases, signs, grids)
def test_coherence_scan_matches_loop_oracle(w, phase, sign, analysis_phases):
    _, ion, _, ion_rho = pair_and_ion(w, phase, sign)
    got = coherence_scan(ion, analysis_phases).series["p_up"]
    np.testing.assert_allclose(got, loop_coherence_scan(ion_rho, analysis_phases),
                               rtol=0, atol=1e-12)


@PROPERTY
@given(st.floats(0.0, 1.0), phases, signs, grids)
def test_closed_form_fits_equal_least_squares(w, phase, sign, grid):
    pair, ion, _, _ = pair_and_ion(w, phase, sign)
    for scan in (correlation_scan(pair, grid), coherence_scan(ion, grid)):
        k = scan.angular_frequency
        design = np.column_stack([np.sin(k * grid), np.cos(k * grid), np.ones_like(grid)])
        sv = np.linalg.svd(design, compute_uv=False)
        # full-rank grids whose least-squares coefficients are good to 1e-12
        assume(sv[-1] >= 1e-3 * sv[0])
        assert scan.flags == (("fit_degenerate",) if 0.5 * (1.0 - w) < 1e-14 else ())
        assert scan.contrast == 1.0 - w
        for name, values in scan.series.items():
            want, got = fit_sinusoid(grid, np.array(values), k), scan.fits[name]
            assert got.offset == 0.5 and got.residual_rms == 0.0
            assert want.residual_rms < 1e-12
            assert got.degenerate == want.degenerate
            for value in ("amplitude", "offset"):
                assert getattr(got, value) == pytest.approx(getattr(want, value),
                                                            rel=0, abs=1e-12)
            # the sin and cos coefficients, free of the phase's 1/amplitude error
            np.testing.assert_allclose(
                [got.amplitude * np.cos(got.phase), got.amplitude * np.sin(got.phase)],
                [want.amplitude * np.cos(want.phase), want.amplitude * np.sin(want.phase)],
                rtol=0, atol=1e-12)


@st.composite
def swap_configs(draw):
    return HardwareConfig(
        pol_mixing_a=draw(st.floats(0.0, 1.0)), pol_mixing_b=draw(st.floats(0.0, 1.0)),
        phi_a=draw(phases), phi_b=draw(phases),
        delta_hz=draw(st.floats(0.0, 5000.0)),
        t2_star_bell=draw(st.floats(1e-4, 1.0)),
        temporal_overlap=draw(st.floats(0.0, 1.0)),
        dark_count_prob=draw(st.floats(0.0, 1e-3)),
        double_excitation_prob=draw(st.floats(0.0, 0.2)))


@PROPERTY
@given(swap_configs(), st.sampled_from([+1, -1]), st.floats(0.0, 5e-3))
def test_swapped_state_matches_full_register_reference(cfg, sign, t):
    np.testing.assert_allclose(swapped_state(cfg, sign, t).matrix,
                               literal_swapped_state(cfg, sign, t).matrix,
                               rtol=0, atol=1e-12)
