"""Shared helpers for the test suite: random states, brute-force oracles and
the references that no command-line run needs.

The oracles here are deliberately independent of the package implementation:
partial traces by explicit index loops, survival probabilities by literal
products, campaign requests by literal per-attempt coin flips, potentials
minimized by generic optimizers, scans by one ``apply_unitary`` per grid
point, scan populations by the full rotated states, noise by Kraus channels
on the full register, the single-ion herald by a lifted projector and a
partial trace, density-matrix validation through the public
``np.linalg.cholesky``, the campaign kernel through a plain binary search and
whole-column arithmetic.

The references are what the tests compare the package against, kept out of
``src/`` because the command line runs none of them: basis kets and the
density matrix of a pure state, the ideal ion-photon pair, the Bell-state
phase, threshold classification of single counts, a campaign's empirical
first-success CDF, the continuous first-success density and CDF of the rate
model with its expected attempts and mean success probability per cap, and
the printed Yb-Ba-Ba displacement tables.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ionlink.config import MAX_REQUEST_NS
from ionlink.ion_photon import (
    PAIR_DIMS,
    PHOTON,
    _pair_amplitudes,
    raman_rotation,
    waveplate_unitary,
)
from ionlink.protocol import _BLOCK, RateReport, _loop_cap, _success_model
from ionlink.quantum import (
    HERMITIAN_TOL,
    MAX_DIM,
    PSD_TOL,
    TRACE_TOL,
    DensityMatrix,
    PureState,
    apply_unitary,
    basis_index,
    lift,
    superposition,
    validate_density,
)
from ionlink.rate_model import DecayParams, _loop_sums, success_cdf_table

CHANNEL_TOL = 1e-10

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# --- references that no command-line run needs ---------------------------------

def ket(values: Sequence[int], dims: Sequence[int] = None) -> PureState:
    """Computational basis state, e.g. ``ket([0, 1])`` for |down, up-or-V>."""
    if dims is None:
        dims = (2,) * len(values)
    d = math.prod(dims)
    amps = np.zeros(d, dtype=complex)
    amps[basis_index(values, dims)] = 1.0
    return PureState(amps, dims)


def density(psi: PureState) -> DensityMatrix:
    """``|psi><psi|`` on the register of ``psi``."""
    return DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()), psi.dims)


def ideal_pair_state(phase: float = 0.0) -> PureState:
    """``(|H,down> + e^{i phase} |V,up>)/sqrt(2)`` on (ion, photon)."""
    return PureState(_pair_amplitudes(phase), PAIR_DIMS)


def bell_phase(delta: float, t: float, phase: float) -> float:
    """Accumulated superposition phase ``(delta*t + phase) mod 2*pi``."""
    return float((delta * t + phase) % (2.0 * np.pi))


def classify_counts(counts, t1: int, t2: int) -> np.ndarray:
    """0 for counts <= t1, 1 for t1 < counts <= t2, else 2."""
    counts = np.asarray(counts)
    return np.where(counts <= t1, 0, np.where(counts <= t2, 1, 2))


def empirical_cdf(report: RateReport, caps) -> np.ndarray:
    """Fraction of a campaign's requests succeeding within each cap in ``caps``."""
    caps = np.asarray(caps, dtype=float)
    attempts = np.sort(report.attempts_used[report.success_mask])
    return np.searchsorted(attempts, caps, side="right") / report.requests


def _log_survival(n, p: DecayParams):
    """Continuous exponent ``g(n)`` with ``survival = exp(g)``; stable for
    small ``b``."""
    n = np.asarray(n, dtype=float)
    if p.b == 0.0:
        return -(p.a + p.c) * n
    return p.a * np.expm1(-p.b * n) / p.b - p.c * n


def pdf(n, p: DecayParams):
    """Continuous first-success density at attempt index ``n >= 0``:
    ``exp[(A/B)(exp(-B n) - 1) - C n] (A exp(-B n) + C)``."""
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < 0):
        raise ValueError("n must be nonnegative")
    out = np.exp(_log_survival(n_arr, p)) * p.probability(n_arr)
    return out if out.shape else float(out)


def cdf(n, p: DecayParams):
    """Continuous herald probability within ``n`` attempts:
    ``1 - exp[(A/B)(exp(-B n) - 1) - C n]``."""
    n_arr = np.asarray(n, dtype=float)
    if np.any(n_arr < 0):
        raise ValueError("n must be nonnegative")
    out = -np.expm1(_log_survival(n_arr, p))
    return out if out.shape else float(out)


def expected_attempts(n, p: DecayParams) -> float:
    """``E(n) = sum_{k<n} S_k``: mean attempts a loop capped at ``n`` uses."""
    return float(_loop_sums(n, p)[2])


def mean_success_prob(n, p: DecayParams) -> float:
    """``q(n) / E(n)``: heralds per attempt consumed at loop cap ``n``."""
    _, q, e = _loop_sums(n, p)
    return float(q / e)


# Printed displacement patterns of the measured Yb-Ba-Ba mode table, unit
# norm per mode, laid out as [ion, mode] with ions ordered (Yb, Ba, Ba) along
# the axis; the sign of each mode is arbitrary.
YB_BA_BA_AXIAL_DISPLACEMENT = (
    (0.614, 0.640, 0.300),
    (0.567, -0.126, -0.840),
    (0.549, -0.758, 0.453),
)
YB_BA_BA_RADIAL_DISPLACEMENT = (
    (0.178, 0.412, 0.847),
    (0.587, 0.672, -0.512),
    (0.790, -0.615, 0.144),
)


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, dims):
    d = int(np.prod(dims))
    probs = rng.dirichlet(np.ones(d))
    u = random_unitary(rng, d)
    mat = u @ np.diag(probs).astype(complex) @ u.conj().T
    mat = 0.5 * (mat + mat.conj().T)
    mat = mat / mat.trace().real
    return DensityMatrix(mat, dims)


def random_pure(rng, dims):
    d = int(np.prod(dims))
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    return amps / np.linalg.norm(amps)


def loop_partial_trace(mat, dims, keep):
    """Brute-force partial trace by summing matrix elements index by index.

    Little-endian register layout: subsystem k contributes value * stride_k
    with stride_k = prod(dims[:k]).
    """
    n = len(dims)
    keep = sorted(keep)
    drop = [k for k in range(n) if k not in keep]
    strides = [int(np.prod(dims[:k])) for k in range(n)]
    keep_dims = [dims[k] for k in keep]
    d_out = int(np.prod(keep_dims))
    out = np.zeros((d_out, d_out), dtype=complex)

    def flat(values):
        return sum(v * strides[k] for k, v in zip(range(n), values))

    def kept_flat(values):
        idx, stride = 0, 1
        for k in keep:
            idx += values[k] * stride
            stride *= dims[k]
        return idx

    from itertools import product
    for row_vals in product(*[range(d) for d in dims]):
        for col_vals in product(*[range(d) for d in dims]):
            if any(row_vals[k] != col_vals[k] for k in drop):
                continue
            out[kept_flat(row_vals), kept_flat(col_vals)] += \
                mat[flat(row_vals), flat(col_vals)]
    return out


def bernoulli_request(cfg, rng):
    """One entanglement request by flipping one coin per attempt.

    Returns ``(attempts_used, success)`` under the schedule of ``cfg``:
    loops of the (hardware-capped) loop cap, recooling after each failed
    loop without the coolant, one loop and a failed request at the cap with
    it.
    """
    cap = cfg.loop_cap_with_coolant if cfg.coolant_present else cfg.loop_cap_no_coolant
    if cfg.hardware_counter_cap is not None:
        cap = min(cap, cfg.hardware_counter_cap)
    attempts = 0
    while True:
        for n in range(cap):
            attempts += 1
            if cfg.coolant_present:
                p = cfg.decay_a + cfg.decay_c
            else:
                p = cfg.decay_a * math.exp(-cfg.decay_b * n) + cfg.decay_c
            if rng.random() < p:
                return attempts, True
        if cfg.coolant_present:
            return attempts, False


def reference_simulate_campaign(cfg, requests, master_seed):
    """``protocol.simulate_campaign`` as it stood before its sampler was
    cached: the same random stream, every in-loop position from
    ``np.searchsorted`` over the whole table, and the columns and their
    sums from whole-array arithmetic."""
    cap = _loop_cap(cfg)
    attempt_ns = round(cfg.attempt_duration * 1e9)
    cooling_ns = round(cfg.cooling_duration * 1e9)
    coolant = cfg.coolant_present
    table = success_cdf_table(_success_model(cfg), cap)
    q = float(table[-1])
    max_loops = (1 if coolant or q >= 1.0 else math.inf if q == 0.0
                 else math.ceil(53 * math.log(2.0) / -math.log1p(-q)))
    if max_loops * (cap * attempt_ns + cooling_ns) > MAX_REQUEST_NS:
        raise ValueError("a single request can exceed 2**50 ns of wall time; "
                         "the loop success probability is too small")
    attempts = np.empty(requests, dtype=np.int64)
    loop_index = np.zeros(requests, dtype=np.int64)
    signs = np.empty(requests, dtype=np.int8)
    success = np.ones(requests, dtype=bool)
    for block, start in enumerate(range(0, requests, _BLOCK)):
        stop = min(start + _BLOCK, requests)
        ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(block,))
        u = np.random.Generator(np.random.PCG64(ss)).random((stop - start, 3))
        k = np.minimum(np.searchsorted(table, u[:, 1] * q, side="right") + 1,
                       table.size)
        sign = np.where(u[:, 2] < 0.5, 1, -1)
        if coolant:
            ok = u[:, 0] < q
            attempts[start:stop] = np.where(ok, k, cap)
            success[start:stop] = ok
            sign = np.where(ok, sign, 0)
        else:
            if q < 1.0:
                loops = np.ceil(np.log1p(-u[:, 0]) / math.log1p(-q))
            else:
                loops = np.ones(stop - start)
            n_cool = np.maximum(loops, 1.0).astype(np.int64) - 1
            attempts[start:stop] = n_cool * cap + k
            loop_index[start:stop] = n_cool
        signs[start:stop] = sign
    wall_ns = attempts * attempt_ns
    wall_ns += cooling_ns if coolant else loop_index * cooling_ns
    attempt_wall = attempt_ns * sum(int(x) for x in attempts)
    cooling_wall = cooling_ns * (requests if coolant
                                 else sum(int(x) for x in loop_index))
    for col in (attempts, wall_ns, loop_index, signs, success):
        col.setflags(write=False)
    return RateReport(requests=requests, successes=int(success.sum()),
                      total_wall_ns=attempt_wall + cooling_wall,
                      attempt_wall_ns=attempt_wall, cooling_wall_ns=cooling_wall,
                      attempts_used=attempts, signs=signs, success_mask=success,
                      wall_ns=wall_ns, loop_index=loop_index)


def reference_validate_density(mats):
    """Density-matrix validation through ``np.linalg.cholesky``: the same
    verdicts and messages as ``quantum.validate_density``, with each check
    written out through numpy's public API."""
    mats = np.asarray(mats)
    herm = np.abs(mats - mats.conj().swapaxes(-1, -2)).max()
    if not herm <= HERMITIAN_TOL:
        raise ValueError(f"matrix not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    tr = mats.trace(axis1=-2, axis2=-1)
    dev = np.abs(tr - 1.0)
    if dev.max() > TRACE_TOL:
        raise ValueError(f"trace is {np.ravel(tr)[dev.argmax()]!r}, expected 1")
    try:
        np.linalg.cholesky(mats + PSD_TOL * np.eye(mats.shape[-1]))
    except np.linalg.LinAlgError:
        lo = np.linalg.eigvalsh(mats).min()
        raise ValueError(f"matrix not positive semidefinite: min eigenvalue {lo:.3e}") from None


def conjugate(rho: DensityMatrix, unitaries: np.ndarray) -> np.ndarray:
    """Read-only stack of ``U rho U^dag``, one per unitary of ``(..., d, d)``,
    validated as density matrices in one call: the full states whose
    diagonals ``quantum.rotated_populations`` returns."""
    u = np.asarray(unitaries, dtype=complex)
    out = u @ rho.matrix @ u.conj().swapaxes(-1, -2)
    validate_density(out)
    out.setflags(write=False)
    return out


# --- scans, one grid point at a time -------------------------------------------
# Register index = ion + 2 * photon for an (ion, photon) pair and
# ion A + 2 * ion B for two ions (little-endian).

def loop_parity_scan(rho, phases, pulses):
    """Parity P(dd) + P(uu) - P(ud) - P(du) after global pi/2 pulses."""
    def pulse(state, phase):
        r = raman_rotation(float(phase))
        return apply_unitary(state, np.kron(r, r))

    if pulses == "two":
        rho = pulse(rho, 0.0)
    values = []
    for phase in phases:
        p = np.real(np.diag(pulse(rho, phase).matrix))
        values.append(p[0] + p[3] - p[1] - p[2])
    return np.array(values)


def loop_correlation_scan(state, angles):
    """``(P(up | V), P(up | H))`` after a half-wave plate on the photon."""
    p_up_v, p_up_h = [], []
    for theta in angles:
        u = np.kron(waveplate_unitary(float(theta)), np.eye(2))
        p = np.real(np.diag(apply_unitary(state, u).matrix))
        for out, (both, pol_only) in ((p_up_v, (3, 2)), (p_up_h, (1, 0))):
            marginal = p[both] + p[pol_only]
            out.append(p[both] / marginal if marginal >= 1e-12 else np.nan)
    return np.array(p_up_v), np.array(p_up_h)


def loop_coherence_scan(state, phases):
    """P(up) after a pi/2 rotation of each phase."""
    return np.array([np.real(apply_unitary(state, raman_rotation(float(phase))).matrix[1, 1])
                     for phase in phases])


# --- register-level reference: products, partial traces and Kraus channels ------

def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reduced state over the subsystems in ``keep`` (register order preserved)."""
    n = len(rho.dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must name at least one subsystem")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"subsystem index out of range: keep={keep}, n={n}")
    rev = rho.dims[::-1]
    t = rho.matrix.reshape(rev + rev)
    # einsum labels: row label of subsystem k is k; col label is n+k if kept,
    # else k (tracing pairs the row and column axes of discarded subsystems)
    row = [k for k in range(n - 1, -1, -1)]
    col = [n + k if k in keep else k for k in range(n - 1, -1, -1)]
    kept_rev = sorted(keep, reverse=True)
    out = [k for k in kept_rev] + [n + k for k in kept_rev]
    reduced = np.einsum(t, row + col, out)
    d = math.prod(rho.dims[k] for k in keep)
    return DensityMatrix(reduced.reshape(d, d), tuple(rho.dims[k] for k in keep))


def projected_ion_state(pair: DensityMatrix, sign: int) -> DensityMatrix:
    """The ion state heralded by the photon in ``(|H> + sign |V>)/sqrt2``:
    the pair projected with the lifted photon projector, normalized, and the
    photon traced out."""
    diag = superposition([(1.0, (0,)), (float(sign), (1,))], (2,)).amplitudes
    proj = lift(np.outer(diag, diag.conj()), PHOTON, PAIR_DIMS)
    weighted = proj @ pair.matrix @ proj
    w = float(np.real(np.trace(weighted)))
    return partial_trace(DensityMatrix(0.5 * (weighted + weighted.conj().T) / w, PAIR_DIMS),
                         keep=[0])


# --- register-level reference: products and Kraus channels ----------------------

def tensor(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Kronecker product; ``b``'s subsystems are appended above ``a``'s."""
    dim = a.dim * b.dim
    if dim > MAX_DIM:
        raise ValueError(f"register dimension {dim} exceeds cap {MAX_DIM}")
    # little-endian layout: the later register occupies the high index bits
    return DensityMatrix(np.kron(b.matrix, a.matrix), a.dims + b.dims)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Trace-preserving channel given by a stack ``(n, d, d)`` of Kraus operators."""

    operators: np.ndarray

    def __init__(self, operators: Iterable[np.ndarray]):
        ops = [np.asarray(k) for k in operators]
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        d = ops[0].shape[0]
        if any(k.shape != (d, d) for k in ops):
            raise ValueError("all Kraus operators must be square and dim-matched")
        ops = np.array(ops, dtype=complex)
        ops.setflags(write=False)
        dev = np.max(np.abs((ops.conj().swapaxes(-1, -2) @ ops).sum(axis=0) - np.eye(d)))
        if dev > CHANNEL_TOL:
            raise ValueError(f"channel not trace preserving: |sum K^dag K - I| = {dev:.3e}")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]

    def on_subsystem(self, index: int, dims: Sequence[int]) -> "KrausChannel":
        return KrausChannel(lift(self.operators, index, dims))


def apply_channel(rho: DensityMatrix, channel: KrausChannel) -> DensityMatrix:
    if channel.dim != rho.dim:
        raise ValueError(f"channel dim {channel.dim} != state dim {rho.dim}")
    ops = channel.operators
    # summed in operator order, starting from zero
    out = np.add.reduce(ops @ rho.matrix @ ops.conj().swapaxes(-1, -2), axis=0, initial=0.0)
    # re-symmetrize round-off so repeated channel application stays valid
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(out, rho.dims)


def depolarizing_channel(p: float) -> KrausChannel:
    """Single-qubit depolarizing, convention ``rho -> (1-p) rho + p I/2``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("depolarizing strength must be in [0, 1]")
    return KrausChannel([
        np.sqrt(1.0 - 0.75 * p) * ID2,
        np.sqrt(0.25 * p) * SIGMA_X,
        np.sqrt(0.25 * p) * SIGMA_Y,
        np.sqrt(0.25 * p) * SIGMA_Z,
    ])


def dephasing_channel(coherence_scale: float) -> KrausChannel:
    """Single-qubit phase damping that scales off-diagonals by the given factor.

    ``coherence_scale = 1`` is the identity; ``0`` removes all coherence.
    """
    lam = float(coherence_scale)
    if not -1.0 <= lam <= 1.0:
        raise ValueError("coherence scale must be in [-1, 1]")
    return KrausChannel([
        np.sqrt((1.0 + lam) / 2.0) * ID2,
        np.sqrt((1.0 - lam) / 2.0) * SIGMA_Z,
    ])


def channel_emitted_pair(pol_mixing, phase):
    """One source's emitted pair: the ideal pair, then the depolarizing
    channel on its photon."""
    state = density(ideal_pair_state(phase))
    if pol_mixing > 0.0:
        ch = depolarizing_channel(pol_mixing).on_subsystem(PHOTON, PAIR_DIMS)
        state = apply_channel(state, ch)
    return state


def literal_swapped_state(cfg, sign, t):
    """The heralded two-ion state on the full register (ion A, photon A,
    ion B, photon B): both channel-emitted pairs tensored, projected onto
    the photon Bell state of ``sign``, the photons traced out, then a phase
    unitary, two dephasing channels and two admixtures in turn."""
    full_dims, two_ion_dims = (2, 2, 2, 2), (2, 2)
    orientation = 1.0 if cfg.swap_phase_convention == "a_minus_b" else -1.0
    pair_a, pair_b = (channel_emitted_pair(pol, orientation * phi)
                      for pol, phi in ((cfg.pol_mixing_a, cfg.phi_a),
                                       (cfg.pol_mixing_b, cfg.phi_b)))
    full = tensor(pair_a, pair_b)
    proj = np.zeros((16, 16), dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            # photon A H and photon B V, plus sign times the reverse
            v = superposition([(1.0, (a, 0, b, 1)), (float(sign), (a, 1, b, 0))],
                              full_dims).amplitudes
            proj += np.outer(v, v.conj())
    weighted = proj @ full.matrix @ proj
    w = float(np.real(np.trace(weighted)))
    heralded = DensityMatrix(0.5 * (weighted + weighted.conj().T) / w, full_dims)
    ions = partial_trace(heralded, keep=[0, 2])
    half = 0.5 * cfg.delta * t
    ions = apply_unitary(ions, np.kron(np.diag([1.0, np.exp(-1j * half)]),
                                       np.diag([1.0, np.exp(+1j * half)])))
    gamma = cfg.bell_coherence_factor(t)
    if gamma < 1.0:
        ions = apply_channel(ions, dephasing_channel(gamma).on_subsystem(0, two_ion_dims))
    if cfg.temporal_overlap < 1.0:
        ions = apply_channel(
            ions, dephasing_channel(cfg.temporal_overlap).on_subsystem(0, two_ion_dims))
    mat = ions.matrix.copy()
    w_dark = cfg.dark_herald_weight()
    if w_dark > 0.0:
        mat = (1.0 - w_dark) * mat + w_dark * np.eye(4) / 4.0
    if cfg.double_excitation_prob > 0.0:
        w_x = cfg.double_excitation_prob
        mat = (1.0 - w_x) * mat + w_x * np.eye(4) / 4.0
    return DensityMatrix(mat, two_ion_dims)
