import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionlink import quantum
from ionlink.quantum import (
    HERMITIAN_TOL,
    PSD_TOL,
    TRACE_TOL,
    DensityMatrix,
    apply_unitary,
    validate_density,
)
from ionlink.analysis import _sample_readout
from ionlink.config import HardwareConfig
from ionlink.detection import ConfusionMatrix, count_pmf
from ionlink.rng import Generator
from qutil import (
    CHANNEL_TOL,
    SIGMA_X,
    KrausChannel,
    apply_channel,
    bright_populations,
    dephasing_channel,
    density,
    depolarizing_channel,
    fidelity_pure,
    fit_sinusoid,
    ket,
    lift,
    loop_partial_trace,
    partial_trace,
    random_density,
    random_unitary,
    reference_validate_density,
    stacked_parity_scan,
    tensor,
)

# readout whose count classes never overlap: 0, 1000 or 2000 mean counts
IDEAL_READOUT = count_pmf(HardwareConfig(bright_rate=1e6, dark_rate=0.0,
                                         shelving_fidelity=1.0,
                                         bright_detect_fidelity=1.0))
IDEAL_CM = ConfusionMatrix.from_pmf(IDEAL_READOUT, 500, 1500)


def test_basis_index_little_endian():
    # subsystem 0 occupies the lowest place
    assert np.flatnonzero(ket((1, 0))).tolist() == [1]
    assert np.flatnonzero(ket((0, 1))).tolist() == [2]
    assert np.flatnonzero(ket((1, 0, 1))).tolist() == [5]


def test_lift_acts_on_named_subsystem():
    x_on_1 = lift(SIGMA_X, 1, (2, 2))
    flipped = x_on_1 @ ket((0, 0))
    assert flipped[2] == 1.0  # (0, 1): subsystem 1 in the higher place


def test_tensor_maximally_mixed():
    half = DensityMatrix(np.eye(2) / 2, (2,))
    quarter = tensor(half, half)
    assert np.allclose(quarter.matrix, np.eye(4) / 4, atol=1e-15)
    assert quarter.dims == (2, 2)


def test_tensor_basis_states():
    down = density(ket((0,)))
    up = density(ket((1,)))
    prod = tensor(down, up)  # (down, up): subsystem 0 = down
    expected_index = 2
    assert prod.matrix[expected_index, expected_index] == 1.0
    assert np.count_nonzero(prod.matrix) == 1


def test_tensor_random_pairs_stay_valid():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_density(rng, (2,))
        b = random_density(rng, (2,))
        t = tensor(a, b)  # constructor revalidates trace/hermiticity/PSD
        assert t.dims == (2, 2)
        # little-endian kron: second factor in the high bits
        assert np.allclose(t.matrix, np.kron(b.matrix, a.matrix), atol=1e-15)


def test_tensor_register_cap():
    four = DensityMatrix(np.eye(16) / 16, (2, 2, 2, 2))
    with pytest.raises(ValueError, match="cap"):
        tensor(four, DensityMatrix(np.eye(2) / 2, (2,)))


def test_partial_trace_bell_gives_mixed():
    phi_plus = density(np.sqrt(0.5) * (ket((0, 0)) + ket((1, 1))))
    reduced = partial_trace(phi_plus, keep=[0])
    assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-15)


def test_partial_trace_product_recovers_factors():
    rng = np.random.default_rng(7)
    a = random_density(rng, (2,))
    b = random_density(rng, (2,))
    prod = tensor(a, b)
    assert np.allclose(partial_trace(prod, [0]).matrix, a.matrix, atol=1e-12)
    assert np.allclose(partial_trace(prod, [1]).matrix, b.matrix, atol=1e-12)


def test_partial_trace_matches_loop_oracle():
    rng = np.random.default_rng(3)
    dims = (2, 2, 2)
    for _ in range(5):
        rho = random_density(rng, dims)
        for keep in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
            got = partial_trace(rho, keep).matrix
            want = loop_partial_trace(rho.matrix, dims, keep)
            assert np.allclose(got, want, atol=1e-12)


def test_partial_trace_rejects_bad_subsystem():
    rho = DensityMatrix(np.eye(4) / 4, (2, 2))
    with pytest.raises(ValueError):
        partial_trace(rho, [2])
    with pytest.raises(ValueError):
        partial_trace(rho, [])


def test_identity_channel_is_identity():
    rng = np.random.default_rng(5)
    rho = random_density(rng, (2,))
    for channel in (KrausChannel([np.eye(2)]), dephasing_channel(1.0),
                    depolarizing_channel(0.0)):
        out = apply_channel(rho, channel)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-15)


def test_full_dephasing_kills_coherence():
    plus = density(np.sqrt(0.5) * (ket((0,)) + ket((1,))))
    out = apply_channel(plus, dephasing_channel(0.0))
    assert np.allclose(out.matrix, np.eye(2) / 2, atol=1e-15)


def test_depolarizing_hand_value():
    # rho -> (1-p) rho + p I/2 on |down><down| gives diag(1 - p/2, p/2)
    p = 0.1
    out = apply_channel(density(ket((0,))), depolarizing_channel(p))
    assert np.allclose(out.matrix, np.diag([1 - p / 2, p / 2]), atol=1e-15)


def test_channels_preserve_trace_and_hermiticity():
    rng = np.random.default_rng(13)
    for _ in range(10):
        rho = random_density(rng, (2, 2))
        ch = depolarizing_channel(rng.uniform(0, 1)).on_subsystem(
            int(rng.integers(0, 2)), (2, 2))
        out = apply_channel(rho, ch)
        assert abs(out.matrix.trace() - 1.0) < 1e-10
        assert np.max(np.abs(out.matrix - out.matrix.conj().T)) < 1e-10


def test_non_trace_preserving_channel_rejected():
    with pytest.raises(ValueError, match="trace preserving"):
        KrausChannel([0.5 * np.eye(2)])


def test_fidelity_trivial_cases():
    psi_plus = np.sqrt(0.5) * (ket((1, 0)) + ket((0, 1)))
    assert fidelity_pure(density(psi_plus), psi_plus) == pytest.approx(1.0, abs=1e-12)
    mixed = DensityMatrix(np.eye(4) / 4, (2, 2))
    assert fidelity_pure(mixed, psi_plus) == pytest.approx(0.25, abs=1e-12)


def test_measure_deterministic_outcome():
    # z-basis readout of |dd> and |uu> gives 0 and 2 bright ions every shot
    rng = Generator(0)
    for values, expected in (((0, 0), [1.0, 0.0, 0.0]), ((1, 1), [0.0, 0.0, 1.0])):
        rho = density(ket(values))
        freq = _sample_readout(bright_populations(np.real(np.diag(rho.matrix))), 1000,
                               IDEAL_CM, rng)
        assert freq == expected


def test_measure_mixed_is_fair():
    # the maximally mixed pair reads one bright ion with probability 1/2
    rng = Generator(21)
    rho = DensityMatrix(np.eye(4) / 4, (2, 2))
    shots = 100_000
    freq = _sample_readout(bright_populations(np.real(np.diag(rho.matrix))), shots,
                           IDEAL_CM, rng)
    sigma = np.sqrt(shots * 0.25)
    assert abs(freq[1] * shots - shots / 2) < 3 * sigma
    assert sum(freq) == pytest.approx(1.0, abs=1e-12)


def test_measure_pair_state_only_correlated_outcomes():
    # (|H,down> + |V,up>)/sqrt(2) on (ion, photon): Born probabilities are
    # 1/2 on (down,H) and (up,V), zero elsewhere
    state = density(np.sqrt(0.5) * (ket((0, 0)) + ket((1, 1))))
    projs = [np.outer(e, e) for e in np.eye(4)]
    probs = [np.real(np.trace(p @ state.matrix)) for p in projs]
    assert probs == pytest.approx([0.5, 0.0, 0.0, 0.5], abs=1e-12)
    assert sum(probs) == pytest.approx(1.0, abs=1e-10)
    # read as two ions, the same state never shows exactly one bright ion
    rng = Generator(2)
    freq = _sample_readout(bright_populations(np.real(np.diag(state.matrix))), 200,
                           IDEAL_CM, rng)
    assert freq[1] == 0.0
    assert freq[0] > 0.0 and freq[2] > 0.0


def test_born_probabilities_sum_to_one_for_random_states():
    rng = np.random.default_rng(17)
    projs = [np.outer(e, e) for e in np.eye(4)]
    for _ in range(10):
        rho = random_density(rng, (2, 2))
        probs = [np.real(np.trace(p @ rho.matrix)) for p in projs]
        assert min(probs) > -1e-12
        assert abs(sum(probs) - 1.0) < 1e-10


def test_roundtrip_tensor_partial_trace():
    rng = np.random.default_rng(29)
    a = random_density(rng, (2, 2))
    b = random_density(rng, (2,))
    assert np.allclose(partial_trace(tensor(a, b), [0, 1]).matrix, a.matrix,
                       atol=1e-12)


def test_validation_rejects_bad_matrices():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    # inf - inf on the diagonal: a ValueError, not a RuntimeWarning first
    with pytest.raises(ValueError, match="Hermitian.*nan"):
        DensityMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2))
    with pytest.raises(ValueError, match="semidefinite"):
        DensityMatrix(np.diag([1.5, -0.5]))


def _with_min_eigenvalue(lowest, seed=3):
    """Trace-1 Hermitian 4x4 matrix, in a random basis, with the given
    smallest eigenvalue."""
    u = random_unitary(np.random.default_rng(seed), 4)
    mat = u @ np.diag([0.6 - lowest, 0.3, 0.1, lowest]) @ u.conj().T
    return 0.5 * (mat + mat.conj().T)


@pytest.mark.parametrize("stacked", [False, True], ids=["alone", "in_stack"])
def test_psd_check_holds_its_tolerance(stacked):
    def member(mat):
        return np.stack([np.eye(4) / 4, mat, np.eye(4) / 4]) if stacked else mat
    assert PSD_TOL == 1e-10
    validate_density(member(_with_min_eigenvalue(-0.5 * PSD_TOL)))
    with pytest.raises(ValueError, match="semidefinite"):
        validate_density(member(_with_min_eigenvalue(-2.0 * PSD_TOL)))


def _random_basis(rng, d, real):
    if not real:
        return random_unitary(rng, d)
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


@st.composite
def _validation_inputs(draw):
    """A matrix or stack of trace-1 Hermitian PSD matrices, real or complex,
    with one member edited: its smallest eigenvalue, trace or Hermiticity
    moved to 0.5 or 2 times the tolerance of its check (either sign), or one
    entry made NaN or infinite."""
    d = draw(st.sampled_from([2, 4, 16]))
    real = draw(st.booleans())
    shape = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    edit = draw(st.sampled_from(["none", "eigenvalue", "trace", "hermiticity",
                                 "nan", "inf", "-inf"]))
    factor = draw(st.sampled_from([-2.0, -0.5, 0.5, 2.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    count = int(np.prod(shape))
    target = int(rng.integers(count))
    members = []
    for k in range(count):
        probs = rng.dirichlet(np.ones(d))
        if k == target and edit == "eigenvalue":
            probs[-1] = factor * PSD_TOL
            probs[:-1] *= (1.0 - probs[-1]) / probs[:-1].sum()
        u = _random_basis(rng, d, real)
        mat = (u * probs) @ u.conj().T
        mat = 0.5 * (mat + mat.conj().T)
        members.append(mat / mat.trace().real)
    mats = np.stack(members)
    i, j = rng.integers(d, size=2)
    if edit == "trace":
        mats[target] *= 1.0 + factor * TRACE_TOL
    elif edit == "hermiticity":
        mats[target, i, (i + 1 + j % (d - 1)) % d] += factor * HERMITIAN_TOL * (
            1.0 if real else np.exp(2j * np.pi * rng.random()))
    elif edit != "eigenvalue" and edit != "none":
        mats[target, i, j] = float(edit)
    return mats.reshape(shape + (d, d)), edit, factor


def _verdict(validate, mats):
    """``None`` on accept, else the ValueError message, with the warnings
    raised on the way; the numpy error state must be the same afterwards."""
    before = np.geterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            validate(mats)
            message = None
        except ValueError as exc:
            message = str(exc)
    assert np.geterr() == before
    return message, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=400, deadline=None)
@given(_validation_inputs())
def test_validation_matches_the_public_cholesky_reference(case):
    mats, edit, factor = case
    # the reference warns on inf - inf before its ValueError; the
    # validation raises the same ValueError without warning
    message, warned = _verdict(validate_density, mats)
    assert warned == []
    assert message == _verdict(reference_validate_density, mats)[0]
    expected = {"none": None,
                "eigenvalue": "semidefinite" if factor < -1.0 else None,
                "trace": "trace" if abs(factor) > 1.0 else None,
                "hermiticity": "Hermitian" if abs(factor) > 1.0 else None,
                }.get(edit, "Hermitian")
    assert (message is None) if expected is None else expected in message


def test_validation_accepts_an_empty_stack():
    validate_density(np.zeros((0, 4, 4)))
    validate_density(np.zeros((2, 0, 4, 4), dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        validate_density(np.zeros((3, 0, 0)))
    # an empty grid passes the stacked scan and fails at the fit
    parity = stacked_parity_scan(density(ket([0, 1])), [], "two")
    assert parity.shape == (0,)
    with pytest.raises(ValueError, match="need at least 3 finite points"):
        fit_sinusoid([], parity, 2.0)


def test_private_cholesky_gufunc_fails_where_numpy_cholesky_does():
    gufunc = np.linalg._umath_linalg.cholesky_lo
    assert quantum._umath_linalg.cholesky_lo is gufunc
    assert gufunc.signature == "(m,m)->(m,m)"
    assert {"d->d", "D->D"} <= set(gufunc.types)
    rng = np.random.default_rng(23)
    cases = [np.zeros((2, 2)), np.eye(3), np.diag([1.0, 0.0]), np.diag([1.0, -1e-300]),
             np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[1.0, 5.0], [-5.0, 1.0]]),
             np.stack([np.eye(4), -np.eye(4)]), np.zeros((0, 3, 3))]
    for lowest in (-2.0, -0.5, 0.5, 2.0):
        member = _with_min_eigenvalue(lowest * PSD_TOL)
        cases += [member + quantum._psd_shift(4), member]
    for d in (2, 4, 16):
        for _ in range(20):
            z = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
            herm = z + z.conj().swapaxes(-1, -2) + rng.normal(scale=d, size=(3, 1, 1)) * np.eye(d)
            cases += [herm, herm.real, z]
    failures = 0
    for mats in cases:
        try:
            expected = np.linalg.cholesky(mats)
        except np.linalg.LinAlgError:
            expected = None
        try:
            with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
                factor = gufunc(mats)
        except FloatingPointError:
            factor = None
        assert (factor is None) == (expected is None)
        if expected is None:
            failures += 1
        else:
            np.testing.assert_array_equal(factor, expected)
    assert 0 < failures < len(cases)


def test_channel_check_holds_its_tolerance():
    assert CHANNEL_TOL == 1e-10
    KrausChannel([np.sqrt(1.0 + 0.5 * CHANNEL_TOL) * np.eye(2)])
    with pytest.raises(ValueError, match="trace preserving"):
        KrausChannel([np.sqrt(1.0 + 2.0 * CHANNEL_TOL) * np.eye(2)])


def test_cached_identity_is_read_only():
    for d in (1, 2, 4, 16):
        shift = quantum._psd_shift(d)
        assert np.array_equal(shift, PSD_TOL * np.eye(d))
        assert not shift.flags.writeable
        assert quantum._psd_shift(d) is shift


def _array_holders():
    """Two equal-valued instances, built apart, of each class that holds an
    array field, or a dict, which no hash can read."""
    from ionlink.analysis import parity_scan, swap_experiment
    from ionlink.config import HardwareConfig, ideal_config
    from ionlink.protocol import simulate_campaign
    from ionlink.rate_model import DecayParams, ScheduleParams, rate_curve
    from ionlink.swap import XState

    builders = {
        "DensityMatrix": lambda: density(ket([0, 1])),
        "KrausChannel": lambda: depolarizing_channel(0.1),
        "ScanResult": lambda: parity_scan(XState(0.0, 0.5), np.linspace(0.0, np.pi, 5)),
        "SwapExperiment": lambda: swap_experiment(ideal_config(), 100, Generator(1)),
        "RateReport": lambda: simulate_campaign(HardwareConfig(), 10, 1),
        "RateCurve": lambda: rate_curve([1, 2], DecayParams(1e-3, 0.0, 1e-3),
                                        ScheduleParams(1e-6, 100e-6), False),
    }
    return {name: (build(), build()) for name, build in builders.items()}


def test_readout_values_compare_and_hash_by_value():
    """The readout's confusion matrix and SPAM correction hold tuples of
    floats, and the two-ion state two numbers: equal values are equal."""
    from ionlink.detection import spam_correct
    from ionlink.swap import XState

    for build in (lambda: ConfusionMatrix.from_pmf(IDEAL_READOUT, 500, 1500),
                  lambda: spam_correct([0.2, 0.5, 0.3], IDEAL_CM),
                  lambda: XState(0.1, 0.3 - 0.2j)):
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1


def test_array_holders_compare_and_hash_by_identity():
    for name, (a, b) in _array_holders().items():
        assert type(a).__name__ == name
        assert a == a and not (a == b) and a != b, name
        assert a in [b, a] and b not in [a]
        assert hash(a) == hash(a) and len({a, b, a}) == 2


def test_dims_normalization_errors():
    assert DensityMatrix([[1.0]], ()).dims == ()
    with pytest.raises(ValueError, match="do not factor"):
        DensityMatrix(np.eye(2) / 2, ())
    with pytest.raises(ValueError, match="positive"):
        DensityMatrix(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="positive"):
        DensityMatrix(np.eye(2) / 2, (2, 1, 0))
    with pytest.raises(ValueError, match="do not factor"):
        DensityMatrix(np.eye(4) / 4, (2, 3))
    assert DensityMatrix(np.eye(4) / 4, np.array([2, 2])).dims == (2, 2)


def test_unitary_application():
    rho = density(ket((0,)))
    out = apply_unitary(rho, SIGMA_X)
    assert np.allclose(out.matrix, np.diag([0.0, 1.0]), atol=1e-15)
