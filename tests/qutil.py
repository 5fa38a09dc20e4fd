"""Shared helpers for the test suite: random states and brute-force oracles.

The oracles here are deliberately independent of the package implementation:
partial traces by explicit index loops, survival probabilities by literal
products, campaign requests by literal per-attempt coin flips, potentials
minimized by generic optimizers, scans by one ``apply_unitary`` per grid
point.
"""

import math

import numpy as np

from ionlink.ion_photon import raman_rotation, waveplate_unitary
from ionlink.quantum import DensityMatrix, apply_unitary


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
        u = np.kron(waveplate_unitary("half", float(theta)), np.eye(2))
        p = np.real(np.diag(apply_unitary(state, u).matrix))
        for out, (both, pol_only) in ((p_up_v, (3, 2)), (p_up_h, (1, 0))):
            marginal = p[both] + p[pol_only]
            out.append(p[both] / marginal if marginal >= 1e-12 else np.nan)
    return np.array(p_up_v), np.array(p_up_h)


def loop_coherence_scan(state, phases):
    """P(up) after a pi/2 rotation of each phase."""
    return np.array([np.real(apply_unitary(state, raman_rotation(float(phase))).matrix[1, 1])
                     for phase in phases])
