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
* Stacks are shaped ``(..., d, d)``, one matrix per leading index, and
  :func:`validate_density` checks a whole stack in one call.  Operators
  lifted into a larger register, the half-wave plate, the Raman rotation of
  an array of phases and the stacked scans, which only the tests build, are
  in ``tests/qutil.py``.

All operations are pure functions; states are treated as immutable (the
wrapped arrays are marked read-only).  Classes that hold arrays, here and in
the other modules, are declared ``eq=False``: they compare and hash by
identity, because a generated field-wise ``==`` would compare arrays and
raise.  The package's own states (``ion_photon.WernerState``,
``swap.XState``) are a few numbers each; they build a ``DensityMatrix`` only
when their ``matrix`` is read, which is where this module and numpy load.

Every ``DensityMatrix`` passes :func:`validate_density`, so its cost is paid
per matrix; an ``XState`` checks its two numbers when built and its matrix
when that is read.  The PSD check calls numpy's Cholesky gufunc
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
from functools import lru_cache
from typing import Sequence

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
def _psd_shift(d: int) -> np.ndarray:
    """Read-only ``PSD_TOL * I``, the shift of the PSD check."""
    shift = PSD_TOL * np.eye(d)
    shift.setflags(write=False)
    return shift


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


def apply_unitary(rho: DensityMatrix, u: np.ndarray) -> DensityMatrix:
    u = np.asarray(u, dtype=complex)
    return DensityMatrix(u @ rho.matrix @ u.conj().T, rho.dims)
