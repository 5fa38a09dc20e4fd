"""Dense complex linear algebra for small qubit registers.

This module is the single home of the register conventions used across the
package:

* Register order for the full link is ``(ion A, photon A, ion B, photon B)``.
  Smaller registers (an ion-photon pair, a two-ion state) use the same
  left-to-right ordering of their subsystems.
* Index mapping is little-endian: subsystem ``k`` of a register with
  subsystem dimensions ``dims`` contributes ``value * prod(dims[:k])`` to the
  flat basis index, so subsystem 0 varies fastest.  Equivalently, the
  register ``(a, b)`` of two factors is ``np.kron(b, a)``.
* Qubit basis labels: ion ``|down> = 0``, ``|up> = 1``; photon polarization
  ``|H> = 0``, ``|V> = 1``.
* Stacks are shaped ``(..., d, d)``: :func:`lift` maps a stack to one
  matrix per leading index, as ``ion_photon.raman_rotation`` (a pi/2 pulse)
  and ``ion_photon.waveplate_unitary`` (a half-wave plate) map an array of
  phases or angles; :func:`rotated_populations` maps a stack of unitaries to
  populations ``(..., d)``, and :func:`validate_density` checks a whole stack
  in one call.  Basis kets and the density matrix of a pure state, which only
  the tests build, are in ``tests/qutil.py``.

All operations are pure functions; states are treated as immutable (the
wrapped arrays are marked read-only).  Classes that hold arrays, here and in
the other modules, are declared ``eq=False``: they compare and hash by
identity, because a generated field-wise ``==`` would compare arrays and
raise.  Randomness always enters through an explicit
:class:`numpy.random.Generator`.

An operator that depends only on control values (a pulse phase, a scan grid,
a fit frequency) is built once per value and shared read-only through
:func:`cache_by_value`, a cache bounded by entry count.

Every state built anywhere in the package passes :func:`validate_density`,
so its cost is paid per state.  Its PSD check calls numpy's Cholesky gufunc
``numpy.linalg._umath_linalg.cholesky_lo`` directly: ``np.linalg.cholesky``
wraps that same gufunc in array wrapping, dtype resolution and a callback
``errstate``, which on a 4x4 state cost more than the factorization.  The
gufunc flags a failed factorization as a floating-point ``invalid`` error,
turned into ``FloatingPointError`` here exactly where ``np.linalg.cholesky``
raises ``LinAlgError``; ``tests/test_quantum.py`` checks that equivalence, so
a numpy release that changes the private gufunc fails the suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Iterable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

# Largest register dimension (2 ions + 2 photons): bounds the per-dimension caches.
MAX_DIM = 16

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10


def _frozen_array(values, dtype=complex) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=MAX_DIM)
def _identity(d: int) -> np.ndarray:
    """Read-only real ``d x d`` identity."""
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


@lru_cache(maxsize=MAX_DIM)
def _psd_shift(d: int) -> np.ndarray:
    """Read-only ``PSD_TOL * I``, the shift of the PSD check."""
    shift = PSD_TOL * _identity(d)
    shift.setflags(write=False)
    return shift


def cache_by_value(maxsize: int):
    """Decorator that builds ``build(*values)`` once per set of values and
    returns it read-only.

    Each argument is converted to a float array and keyed by its shape and
    bytes, so ``-0.0`` and ``0.0`` are distinct keys and a repeated NaN finds
    its entry; ``build`` receives read-only float arrays equal to the
    converted arguments.  A result that is a tuple is returned with each of
    its arrays read-only.  At most ``maxsize`` results are kept, least
    recently used dropped first; ``cache_info`` and ``cache_clear`` are those
    of the underlying ``lru_cache``.
    """
    def decorate(build):
        @lru_cache(maxsize=maxsize)
        def cached(*keys):
            out = build(*(np.frombuffer(raw).reshape(shape) for shape, raw in keys))
            for part in out if isinstance(out, tuple) else (out,):
                if isinstance(part, np.ndarray):
                    part.setflags(write=False)
            return out

        @wraps(build)
        def lookup(*values):
            arrays = [np.asarray(v, dtype=float) for v in values]
            return cached(*((a.shape, a.tobytes()) for a in arrays))

        lookup.cache_info, lookup.cache_clear = cached.cache_info, cached.cache_clear
        return lookup
    return decorate


def _normalize_dims(dim: int, dims: Sequence[int] | None) -> tuple[int, ...]:
    return _checked_dims(dim, (dim,) if dims is None else tuple(dims))


@lru_cache(maxsize=64)
def _checked_dims(dim: int, dims: tuple) -> tuple[int, ...]:
    dims = tuple(map(int, dims))
    if dims and min(dims) < 1:
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    if math.prod(dims) != dim:
        raise ValueError(f"dims {dims} do not factor dimension {dim}")
    return dims


def basis_index(values: Sequence[int], dims: Sequence[int]) -> int:
    """Flat index of the computational basis state with the given subsystem
    values, little-endian (subsystem 0 in the lowest place)."""
    if len(values) != len(dims):
        raise ValueError("one value per subsystem required")
    index = 0
    stride = 1
    for v, d in zip(values, dims):
        if not 0 <= v < d:
            raise ValueError(f"value {v} out of range for dimension {d}")
        index += v * stride
        stride *= d
    return index


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized state vector over a register of subsystems."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, amplitudes, dims: Sequence[int] | None = None):
        amps = _frozen_array(amplitudes)
        if amps.ndim != 1:
            raise ValueError("amplitudes must be a vector")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", _normalize_dims(amps.size, dims))
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"state vector not normalized: |psi| = {norm!r}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Trace-one Hermitian PSD matrix with a declared subsystem factorization."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, matrix, dims: Sequence[int] | None = None):
        mat = _frozen_array(matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "dims", _normalize_dims(mat.shape[0], dims))
        validate_density(mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def validate_density(mats: np.ndarray) -> None:
    """Raise ValueError unless every matrix of ``(..., d, d)`` is Hermitian
    (a NaN or infinite entry fails), of unit trace and PSD (``rho + PSD_TOL
    * I`` has a Cholesky factor).  The worst member decides each message,
    with its eigenvalue from ``eigvalsh``, so a stack fails as its bad member
    alone would.  An empty stack has no member to fail."""
    mats = np.asarray(mats)
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        try:
            herm = np.abs(mats - mats.conj().swapaxes(-1, -2)).max(initial=0.0)
        except FloatingPointError:  # inf - inf: an infinite entry and its mirror
            herm = math.nan
        if not herm <= HERMITIAN_TOL:
            raise ValueError(f"matrix not Hermitian: max |rho - rho^dag| = {herm:.3e}")
        tr = mats.trace(axis1=-2, axis2=-1)
        if (abs(tr - 1.0) > TRACE_TOL).any():
            raise ValueError(f"trace is {np.ravel(tr)[abs(tr - 1.0).argmax()]!r}, expected 1")
        try:
            _umath_linalg.cholesky_lo(mats + _psd_shift(mats.shape[-1]))
        except FloatingPointError:
            lo = np.linalg.eigvalsh(mats).min()
            raise ValueError(f"matrix not positive semidefinite: "
                             f"min eigenvalue {lo:.3e}") from None


def superposition(terms: Iterable[tuple[complex, Sequence[int]]],
                  dims: Sequence[int]) -> PureState:
    """Normalized superposition of computational basis states.

    ``terms`` is an iterable of ``(amplitude, subsystem_values)`` pairs.
    """
    dims = tuple(dims)
    d = math.prod(dims)
    amps = np.zeros(d, dtype=complex)
    for amplitude, values in terms:
        amps[basis_index(values, dims)] += amplitude
    if not np.isfinite(amps).all():
        raise ValueError("superposition amplitudes must be finite")
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise ValueError("superposition has zero norm")
    return PureState(amps / norm, dims)


def lift(op: np.ndarray, index: int, dims: Sequence[int]) -> np.ndarray:
    """Embed one operator, or a stack ``(..., d, d)``, acting on subsystem
    ``index`` into the full register as ``I_high (x) op (x) I_low``."""
    dims = tuple(dims)
    if not 0 <= index < len(dims):
        raise ValueError(f"subsystem index {index} out of range for {dims}")
    op = np.asarray(op, dtype=complex)
    d = dims[index]
    if op.shape[-2:] != (d, d):
        raise ValueError("operator shape does not match subsystem dimension")
    low, high = math.prod(dims[:index]), math.prod(dims[index + 1:])
    out = np.zeros(op.shape[:-2] + (high, d, low, high, d, low), dtype=complex)
    # broadcast op into the writable view of the blocks with equal high and low
    np.einsum("...hilhjl->...hlij", out)[...] = op[..., None, None, :, :]
    return out.reshape(op.shape[:-2] + (high * d * low,) * 2)


def apply_unitary(rho: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    u = np.asarray(u, dtype=complex)
    return DensityMatrix(u @ rho.matrix @ u.conj().T, rho.dims)


def rotated_populations(rho: DensityMatrix, unitaries: np.ndarray) -> np.ndarray:
    """Populations ``(..., d)``: the real diagonal of ``U rho U^dag`` for each
    unitary of ``(..., d, d)``, without the states.  A non-finite population (a
    NaN control value) sends the full stack of states to :func:`validate_density`."""
    u = np.asarray(unitaries, dtype=complex)
    pops = ((u @ rho.matrix) * u.conj()).sum(axis=-1).real
    if not np.isfinite(pops).all():
        validate_density(u @ rho.matrix @ u.conj().swapaxes(-1, -2))
    return pops


def fidelity_pure(rho: DensityMatrix, psi: PureState) -> float:
    """Overlap ``<psi| rho |psi>``, clamped to [0, 1]."""
    if rho.dim != psi.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {psi.dim}")
    val = float(np.real(psi.amplitudes.conj() @ rho.matrix @ psi.amplitudes))
    return min(1.0, max(0.0, val))
