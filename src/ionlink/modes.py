"""Equilibrium structure and collective normal modes of a linear ion chain.

The chain sits in a static axial harmonic potential plus mutual Coulomb
repulsion.  Mass scaling at fixed trap settings: the axial spring constant
``m * w_z^2`` is species-independent (static potential, equal charges), so
equilibrium positions are mass-independent; the radial (pseudopotential)
secular frequency scales as ``1/m``, i.e. the radial spring constant is
``(m_ref * w_r_ref)^2 / m``.

Participation conventions: the mass-weighted symmetric eigenproblem
``D = M^{-1/2} H M^{-1/2}`` yields the orthonormal participation matrix ``b``
(``b^T b = b b^T = I``, the normalization stated with the eigenproblem).
Experimental tables usually print the physical displacement patterns instead:
``u ~ M^{-1/2} b`` with each mode rescaled to a unit vector.  ModeTable
carries both; comparisons against printed tables use ``displacement``.

Mode ordering follows the printed convention: axial modes ascending in
frequency, radial modes descending.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

ECH = 1.602176634e-19       # elementary charge, C
AMU = 1.66053906660e-27     # atomic mass unit, kg
EPS0 = 8.8541878128e-12     # vacuum permittivity
K_COUL = ECH**2 / (4.0 * np.pi * EPS0)

MASS_YB_171 = 170.936330    # amu
MASS_BA_138 = 137.905247    # amu

# Reference (single-ion secular) frequencies, Hz: the spring constants, the
# Coulomb length and the eigenproblem residuals stay finite and nonzero far
# beyond this range, but not over every positive float.
REFERENCE_RANGE_HZ = (1.0, 1e12)
# Ion and reference masses, amu: atomic ions, whose mass ratio of at most 300
# keeps the mass-weighted solve's residual below 1e-10 in both directions.
MASS_RANGE_AMU = (1.0, 300.0)

# Default calibration targets: measured mode table of the Yb-Ba-Ba chain used
# for sympathetic cooling (frequencies in Hz; axial ascending, radial
# descending), with the ions ordered (Yb, Ba, Ba) along the axis.  The
# table's printed displacement patterns are the reference of the tests.
YB_BA_BA_MASSES = (MASS_YB_171, MASS_BA_138, MASS_BA_138)
YB_BA_BA_AXIAL_HZ = (353e3, 604e3, 872e3)
YB_BA_BA_RADIAL_HZ = (868e3, 737e3, 606e3)
# single Ba-138 ion references of a modes --single-ion run, Hz
SINGLE_ION_AXIAL_HZ = 367e3
SINGLE_ION_RADIAL_HZ = 890e3


@dataclass(frozen=True)
class ChainSpec:
    """Chain composition and the single-reference-ion secular frequencies."""

    masses_amu: tuple[float, ...]
    axial_freq_ref: float       # Hz, single reference ion
    radial_freq_ref: float      # Hz, single reference ion
    reference_mass_amu: float = MASS_BA_138

    def __post_init__(self):
        if len(self.masses_amu) < 1:
            raise ValueError("need at least one ion")
        lo, hi = MASS_RANGE_AMU
        for m in (*self.masses_amu, self.reference_mass_amu):
            if not lo <= m <= hi:
                raise ValueError(f"masses must be within [{lo:g}, {hi:g}] amu, "
                                 f"got {m!r}")
        lo, hi = REFERENCE_RANGE_HZ
        for name in ("axial_freq_ref", "radial_freq_ref"):
            ref = getattr(self, name)
            if not lo <= ref <= hi:
                raise ValueError(f"{name} must be within [{lo:g}, {hi:g}] Hz, "
                                 f"got {ref!r}")

    @property
    def n_ions(self) -> int:
        return len(self.masses_amu)

    @property
    def masses_kg(self) -> np.ndarray:
        return np.asarray(self.masses_amu, dtype=float) * AMU

    @property
    def axial_spring(self) -> float:
        """Species-independent axial spring constant m_ref * w_z_ref^2."""
        return self.reference_mass_amu * AMU * (2.0 * np.pi * self.axial_freq_ref) ** 2

    def radial_springs(self) -> np.ndarray:
        """Per-ion radial spring constants (m_ref * w_r_ref)^2 / m_i."""
        m_ref = self.reference_mass_amu * AMU
        return (m_ref * 2.0 * np.pi * self.radial_freq_ref) ** 2 / self.masses_kg


_MAX_ITERATIONS = 500  # Newton steps of the equilibrium search


def _curvatures(z: np.ndarray) -> np.ndarray:
    """Pair curvatures ``1/|z_i - z_j|^3``, 0 on the diagonal."""
    d = np.abs(np.subtract.outer(z, z))
    np.fill_diagonal(d, np.inf)
    return 1.0 / d**3


def _trap_hessian(springs: float | np.ndarray, c: np.ndarray, weight: float) -> np.ndarray:
    """``diag(springs) + weight * (diag(c 1) - c)``: the trap springs plus the
    pair curvatures ``c``, weighted 2 axially and -1 radially."""
    return np.diag(springs + weight * c.sum(axis=1)) - weight * c


def equilibrium_positions(spec: ChainSpec) -> np.ndarray:
    """Axial equilibrium positions (meters) by damped Newton iteration.

    Equal charges make the equilibria independent of the masses; the natural
    length scale is ``(K_COUL / axial_spring)^(1/3)``.  In those units the net
    force on ion i is ``u_i - sum_j (u_i - u_j) c_ij``, whose Jacobian is the
    axial Hessian at unit spring (James, Appl. Phys. B 66, 181 (1998)).

    The result depends only on the ion count and the axial spring, and is
    solved once per pair and returned read-only: the radial search of
    ``calibrate_reference_frequencies`` keeps both fixed.
    """
    return _equilibrium(spec.n_ions, spec.axial_spring)


@lru_cache(maxsize=8)
def _equilibrium(n: int, axial_spring: float) -> np.ndarray:
    z = np.zeros(1)
    if n > 1:
        ell = (K_COUL / axial_spring) ** (1.0 / 3.0)
        u = np.linspace(-(n - 1) / 2.0, (n - 1) / 2.0, n)
        for _ in range(_MAX_ITERATIONS):
            c = _curvatures(u)
            force = u - c.sum(axis=1) * u + c @ u
            step = np.linalg.solve(_trap_hessian(1.0, c, 2.0), force)
            # damping keeps the ordering when the initial guess is far off
            scale = min(1.0, 0.5 * np.min(np.abs(np.diff(u))) / max(np.max(np.abs(step)), 1e-300))
            u = u - scale * step
            if np.linalg.norm(force) < 1e-14:
                break
        else:
            raise RuntimeError(f"equilibrium search did not converge in "
                               f"{_MAX_ITERATIONS} iterations")
        z = u * ell
    z.setflags(write=False)
    return z


def _hessian(spec: ChainSpec, z: np.ndarray, direction: str) -> np.ndarray:
    c = K_COUL * _curvatures(z)
    if direction == "axial":
        return _trap_hessian(spec.axial_spring, c, 2.0)
    if direction == "radial":
        return _trap_hessian(spec.radial_springs(), c, -1.0)
    raise ValueError(f"direction must be axial or radial, got {direction!r}")


@dataclass(frozen=True, eq=False)
class ModeTable:
    """Normal-mode frequencies and participation of one trap direction."""

    direction: str
    frequencies: np.ndarray          # Hz, per mode
    participation: np.ndarray        # orthonormal b, [ion, mode]
    displacement: np.ndarray         # unit-norm displacement patterns, [ion, mode]
    residuals: np.ndarray            # relative residual of H u = w^2 M u, per mode
    masses_amu: tuple[float, ...]


def normal_modes(spec: ChainSpec, direction: str) -> ModeTable:
    """Solve the mass-weighted eigenproblem for one trap direction.

    Raises ValueError with the offending mode named if a radial mode is
    unstable (nonpositive squared frequency).
    """
    z = equilibrium_positions(spec)
    h = _hessian(spec, z, direction)
    m = spec.masses_kg
    w2, b = np.linalg.eigh(h / np.sqrt(np.outer(m, m)))  # ascending
    if direction == "radial":
        w2, b = w2[::-1], b[:, ::-1]  # printed convention: descending
    if np.any(w2 <= 0):
        k = int(np.argmax(w2 <= 0))  # the first unstable mode
        raise ValueError(
            f"unstable configuration: {direction} mode {k + 1} has "
            f"omega^2 = {w2[k]:.3e} <= 0 (weaken the axial confinement)")
    freqs = np.sqrt(w2) / (2.0 * np.pi)
    # sign convention: largest-magnitude component positive per mode
    peak = b[np.argmax(np.abs(b), axis=0), np.arange(b.shape[1])]
    b = np.where(peak < 0, -b, b)
    u = b / np.sqrt(m)[:, None]
    hu = h @ u
    residuals = (np.linalg.norm(hu - w2 * (m[:, None] * u), axis=0)
                 / np.linalg.norm(hu, axis=0))
    disp = u / np.linalg.norm(u, axis=0, keepdims=True)
    return ModeTable(direction=direction, frequencies=freqs, participation=b,
                     displacement=disp, residuals=residuals,
                     masses_amu=tuple(spec.masses_amu))


@dataclass(frozen=True)
class CoolantCoupling:
    mode_index: int
    frequency: float
    participation: float
    below_floor: bool


def coolant_coupling_report(table: ModeTable, coolant_index: int,
                            floor: float = 0.1) -> list[CoolantCoupling]:
    """Coolant participation magnitude per mode, flagging weakly coupled modes.

    Participation here is the printed (displacement) convention, since the
    flag is about how much the coolant actually moves in each mode.
    """
    if not 0 <= coolant_index < len(table.masses_amu):
        raise ValueError("coolant index out of range")
    amps = np.abs(table.displacement[coolant_index]).tolist()
    return [CoolantCoupling(mode_index=k, frequency=f, participation=a, below_floor=a < floor)
            for k, (f, a) in enumerate(zip(table.frequencies.tolist(), amps))]


def calibrate_reference_frequencies(
        masses_amu=YB_BA_BA_MASSES,
        axial_targets_hz=YB_BA_BA_AXIAL_HZ,
        radial_targets_hz=YB_BA_BA_RADIAL_HZ,
        reference_mass_amu: float = MASS_BA_138) -> ChainSpec:
    """Fit the single-ion reference frequencies to a measured mode table.

    The single-ion frequencies behind a published table are often not printed;
    this least-squares fit recovers them.  Axial frequencies scale linearly
    with the axial reference (closed-form fit); the radial reference is found
    by a golden-section search (Kiefer, Proc. AMS 4, 502 (1953)) on
    ``[0.5, 3.0] x max(radial targets)``, stopped once the bracket is
    narrower than 1e-4 Hz (about 50 cost evaluations).
    """
    probe = ChainSpec(masses_amu=tuple(masses_amu), axial_freq_ref=1e5,
                      radial_freq_ref=1e6, reference_mass_amu=reference_mass_amu)
    ax = np.asarray(axial_targets_hz, dtype=float)
    ratios = normal_modes(probe, "axial").frequencies / 1e5
    axial_ref = float(ratios @ ax / (ratios @ ratios))

    rad = np.asarray(radial_targets_hz, dtype=float)

    def cost(fr: float) -> float:
        spec = replace(probe, axial_freq_ref=axial_ref, radial_freq_ref=fr)
        try:
            freqs = normal_modes(spec, "radial").frequencies
        except ValueError:
            return 1e30
        return float(np.sum((freqs - rad) ** 2))

    # golden-section search: each step keeps the sub-bracket holding the
    # lower interior point and reuses that point's cost
    shrink = (5.0 ** 0.5 - 1.0) / 2.0
    guess = float(np.max(rad))
    lo, hi = 0.5 * guess, 3.0 * guess
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc, fd = cost(c), cost(d)
    while hi - lo > 1e-4:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - shrink * (hi - lo)
            fc = cost(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + shrink * (hi - lo)
            fd = cost(d)
    return replace(probe, axial_freq_ref=axial_ref, radial_freq_ref=0.5 * (lo + hi))


def chain_spec(axial_ref=None, radial_ref=None, single_ion: bool = False) -> ChainSpec:
    """The chain of a ``modes`` run.  A single Ba-138 ion takes the
    ``SINGLE_ION_*_HZ`` reference it is not given.  The Yb-Ba-Ba chain takes
    both references, or neither: then they are calibrated to its measured
    mode table.  One reference alone, or one out of range, raises ValueError."""
    if single_ion:
        return ChainSpec(
            (MASS_BA_138,), SINGLE_ION_AXIAL_HZ if axial_ref is None else axial_ref,
            SINGLE_ION_RADIAL_HZ if radial_ref is None else radial_ref)
    if axial_ref is None and radial_ref is None:
        return calibrate_reference_frequencies()
    if axial_ref is None or radial_ref is None:
        raise ValueError("the Yb-Ba-Ba chain needs both reference frequencies or neither")
    return ChainSpec(YB_BA_BA_MASSES, axial_ref, radial_ref)


def modes_outputs(spec: ChainSpec) -> dict:
    """The ``modes`` run: each direction's mode table as a CSV table, one
    row per mode (each ion's displacement, then the frequency in kHz), and a
    summary with the references, the frequencies, three equal-mass axial
    ratios beside their closed form, the coolant (ion 0) coupling of each
    radial mode and the largest eigenproblem residual of each direction."""
    tables = {d: normal_modes(spec, d) for d in ("axial", "radial")}
    files = {}
    for d, t in tables.items():
        columns = ["mode", *(f"ion{i}_mass{m:g}" for i, m in enumerate(t.masses_amu)),
                   "frequency_khz"]
        files[f"modes_{d}.csv"] = (columns, [
            [f"{d}_{k + 1}", *(f"{x:.3f}" for x in u), f"{f / 1e3:.1f}"]
            for k, (u, f) in enumerate(zip(t.displacement.T, t.frequencies))])
    eq = normal_modes(replace(spec, masses_amu=(MASS_BA_138,) * 3), "axial").frequencies
    files["modes_summary.json"] = {
        "axial_freq_ref_hz": spec.axial_freq_ref,
        "radial_freq_ref_hz": spec.radial_freq_ref,
        "axial_frequencies_hz": tables["axial"].frequencies.tolist(),
        "radial_frequencies_hz": tables["radial"].frequencies.tolist(),
        "equal_mass_axial_ratios": (eq / eq[0]).tolist(),
        "equal_mass_expected": [1.0, 3.0 ** 0.5, (29.0 / 5.0) ** 0.5],
        "radial_coolant_coupling": [
            {"mode": c.mode_index + 1, "frequency_hz": c.frequency,
             "participation": c.participation, "below_floor": c.below_floor}
            for c in coolant_coupling_report(tables["radial"], coolant_index=0)],
        "max_eigen_residual": {d: float(np.max(t.residuals)) for d, t in tables.items()},
    }
    return files
