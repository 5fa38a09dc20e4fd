"""Stacked scans against per-point oracles, stack validation, and property
tests of the density-matrix layer on random valid inputs."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ionlink import analysis
from ionlink.analysis import apply_analysis_pulse, parity_scan
from ionlink.config import HardwareConfig
from ionlink.ion_photon import (
    H,
    SourceParams,
    coherence_scan,
    correlation_scan,
    emit_ion_photon_state,
    heralded_ion_state,
)
from ionlink.quantum import (
    DensityMatrix,
    apply_unitary,
    lift,
    rotated_populations,
    validate_density,
)
from qutil import (
    apply_channel,
    channel_emitted_pair,
    conjugate,
    density,
    dephasing_channel,
    depolarizing_channel,
    ket,
    literal_swapped_state,
    loop_coherence_scan,
    loop_correlation_scan,
    loop_parity_scan,
    partial_trace,
    projected_ion_state,
    tensor,
)
from ionlink.swap import swapped_state

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


# --- stacked scans against one apply_unitary per grid point ---------------------

@PROPERTY
@given(states((2, 2)), grids, st.sampled_from(["one", "two"]))
def test_parity_scan_matches_loop_oracle(rho, phases, pulses):
    got = parity_scan(rho, phases, pulses=pulses).series["parity"]
    np.testing.assert_allclose(got, loop_parity_scan(rho, phases, pulses),
                               rtol=0, atol=1e-12)


@PROPERTY
@given(states((2, 2)), grids)
def test_folded_two_pulse_stack_equals_pulse_then_stack(rho, phases):
    stepwise = conjugate(apply_analysis_pulse(rho, 0.0), analysis._pulse_stack(phases))
    np.testing.assert_allclose(analysis._analysis_sequence(rho, phases, "two"),
                               np.real(np.diagonal(stepwise, axis1=-2, axis2=-1)),
                               rtol=0, atol=1e-12)


@PROPERTY
@given(states((2, 2), floor=0.01), grids)
def test_correlation_scan_matches_loop_oracle(state, angles):
    scan = correlation_scan(state, angles)
    want_v, want_h = loop_correlation_scan(state, angles)
    np.testing.assert_allclose(scan.series["p_up_given_V"], want_v, rtol=0, atol=1e-12)
    np.testing.assert_allclose(scan.series["p_up_given_H"], want_h, rtol=0, atol=1e-12)


@PROPERTY
@given(states((2,)), grids)
def test_coherence_scan_matches_loop_oracle(state, phases):
    got = coherence_scan(state, phases).series["p_up"]
    np.testing.assert_allclose(got, loop_coherence_scan(state, phases), rtol=0, atol=1e-12)


def test_correlation_scan_zero_marginal_is_nan_and_flagged():
    # photon in H: the V branch is empty at plate angles 0 and pi/2, the H
    # branch at pi/4
    state = density(ket((0, H)))  # ion down
    angles = np.linspace(0.0, np.pi / 2.0, 7)
    scan = correlation_scan(state, angles)
    assert "zero_marginal" in scan.flags
    assert np.flatnonzero(np.isnan(scan.series["p_up_given_V"])).tolist() == [0, 6]
    assert np.flatnonzero(np.isnan(scan.series["p_up_given_H"])).tolist() == [3]
    want_v, want_h = loop_correlation_scan(state, angles)
    np.testing.assert_allclose(scan.series["p_up_given_V"], want_v, atol=1e-12)
    np.testing.assert_allclose(scan.series["p_up_given_H"], want_h, atol=1e-12)


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
    us = data.draw(unitaries(rho.dim, count))
    got = rotated_populations(rho, us)
    assert got.shape == (len(us), rho.dim) and got.dtype == float
    np.testing.assert_allclose(got, np.diagonal(conjugate(rho, us), axis1=-2, axis2=-1),
                               rtol=0, atol=1e-12)


# --- closed forms against the register-level Kraus reference ----------------------

phases = st.floats(0.0, 2.0 * np.pi, exclude_max=True)


@PROPERTY
@given(st.floats(0.0, 1.0), phases)
def test_emission_matches_photon_depolarizing_channel(p, phase):
    source = SourceParams(pol_mixing=p, superposition_phase=phase)
    np.testing.assert_allclose(emit_ion_photon_state(source).matrix,
                               channel_emitted_pair(p, phase).matrix, rtol=0, atol=1e-12)


@PROPERTY
@given(states((2, 2), floor=0.01), st.sampled_from([+1, -1]))
def test_herald_matches_projector_reference(pair, sign):
    np.testing.assert_allclose(heralded_ion_state(pair, sign).matrix,
                               projected_ion_state(pair, sign).matrix, rtol=0, atol=1e-12)


@st.composite
def swap_configs(draw):
    return HardwareConfig(
        pol_mixing_a=draw(st.floats(0.0, 1.0)), pol_mixing_b=draw(st.floats(0.0, 1.0)),
        phi_a=draw(phases), phi_b=draw(phases),
        delta_hz=draw(st.floats(0.0, 5000.0)),
        t2_star_bell=draw(st.floats(1e-4, 1.0)),
        bell_coherence_envelope=draw(st.sampled_from(["gaussian", "exponential"])),
        temporal_overlap=draw(st.floats(0.0, 1.0)),
        dark_count_prob=draw(st.floats(0.0, 1e-3)),
        double_excitation_prob=draw(st.floats(0.0, 0.2)),
        swap_phase_convention=draw(st.sampled_from(["b_minus_a", "a_minus_b"])))


@PROPERTY
@given(swap_configs(), st.sampled_from([+1, -1]), st.floats(0.0, 5e-3))
def test_swapped_state_matches_full_register_reference(cfg, sign, t):
    np.testing.assert_allclose(swapped_state(cfg, sign, t).matrix,
                               literal_swapped_state(cfg, sign, t).matrix,
                               rtol=0, atol=1e-12)
