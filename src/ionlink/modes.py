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

import math
from dataclasses import dataclass, replace

ECH = 1.602176634e-19       # elementary charge, C
AMU = 1.66053906660e-27     # atomic mass unit, kg
EPS0 = 8.8541878128e-12     # vacuum permittivity
K_COUL = ECH**2 / (4.0 * math.pi * EPS0)

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
    def masses_kg(self) -> tuple[float, ...]:
        return tuple(m * AMU for m in self.masses_amu)

    @property
    def axial_spring(self) -> float:
        """Species-independent axial spring constant m_ref * w_z_ref^2."""
        return self.reference_mass_amu * AMU * (2.0 * math.pi * self.axial_freq_ref) ** 2

    def radial_springs(self) -> tuple[float, ...]:
        """Per-ion radial spring constants (m_ref * w_r_ref)^2 / m_i."""
        m_ref = self.reference_mass_amu * AMU
        k = (m_ref * 2.0 * math.pi * self.radial_freq_ref) ** 2
        return tuple(k / m for m in self.masses_kg)


_MAX_ITERATIONS = 500  # Newton steps of the equilibrium and calibration
_MAX_SWEEPS = 50       # Jacobi sweeps of the eigensolver
_EPS = 2.0 ** -52      # double-precision machine epsilon


def _curvatures(z) -> list[list[float]]:
    """Pair curvatures ``1/|z_i - z_j|^3``, 0 on the diagonal."""
    return [[0.0 if i == j else 1.0 / abs(zi - zj) ** 3 for j, zj in enumerate(z)]
            for i, zi in enumerate(z)]


def _trap_hessian(springs, c, weight: float) -> list[list[float]]:
    """``diag(springs) + weight * (diag(c 1) - c)``: the trap springs plus the
    pair curvatures ``c``, weighted 2 axially and -1 radially."""
    return [[s + weight * sum(row) if i == j else -weight * x for j, x in enumerate(row)]
            for i, (s, row) in enumerate(zip(springs, c))]


def _solve(a, b) -> list[float]:
    """``x`` with ``a x = b``, by Gaussian elimination with partial pivoting."""
    n = len(b)
    rows = [[*row, y] for row, y in zip(a, b)]
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(rows[i][k]))
        rows[k], rows[p] = rows[p], rows[k]
        for row in rows[k + 1:]:
            f = row[k] / rows[k][k]
            row[k:] = [x - f * y for x, y in zip(row[k:], rows[k][k:])]
    x = [0.0] * n
    for k in reversed(range(n)):
        x[k] = (rows[k][n] - sum(rows[k][j] * x[j] for j in range(k + 1, n))) / rows[k][k]
    return x


def _eigh(a) -> tuple[list[float], list[list[float]]]:
    """Eigenvalues (ascending) and eigenvectors (columns) of the symmetric ``a``
    by cyclic Jacobi sweeps, each rotating away every entry above ``_EPS *
    sqrt(|a_pp a_qq|)``, until a sweep rotates none.  That threshold keeps high
    relative accuracy on graded matrices such as the mass-weighted Hessians
    (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13, 1204 (1992))."""
    n = len(a)
    a = [list(row) for row in a]
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= _EPS * math.sqrt(abs(a[p][p] * a[q][q])):
                    continue
                rotated = True
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                app, aqq = a[p][p] - t * apq, a[q][q] + t * apq
                for row in (*a, *v):  # columns p and q
                    row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
                a[p], a[q] = [row[p] for row in a], [row[q] for row in a]  # symmetry
                a[p][p], a[q][q] = app, aqq
                a[p][q] = a[q][p] = 0.0
        if not rotated:
            order = sorted(range(n), key=lambda k: a[k][k])
            return [a[k][k] for k in order], [[row[k] for k in order] for row in v]
    raise RuntimeError(f"Jacobi eigensolver did not converge in {_MAX_SWEEPS} sweeps")


def equilibrium_positions(spec: ChainSpec) -> tuple[float, ...]:
    """Axial equilibrium positions (meters) by damped Newton iteration.

    Equal charges make the equilibria independent of the masses; the natural
    length scale is ``ell = (K_COUL / axial_spring)^(1/3)``.  In those units
    the net force on ion i is ``u_i - sum_j (u_i - u_j) c_ij``, whose Jacobian
    is the axial Hessian at unit spring (James, Appl. Phys. B 66, 181 (1998)).
    The iteration stops once the force is within its round-off floor,
    ``4 n eps max(1, |u|)``, which grows with the chain (1.1e-14 at 14 ions,
    2.5e-14 at 20), so that chains of 15 ions or more converge.
    """
    n = spec.n_ions
    ell = (K_COUL / spec.axial_spring) ** (1.0 / 3.0)
    u = [k - (n - 1) / 2.0 for k in range(n)]
    for _ in range(_MAX_ITERATIONS):
        c = _curvatures(u)
        force = [ui - sum(row) * ui + sum(x * uj for x, uj in zip(row, u))
                 for ui, row in zip(u, c)]
        step = _solve(_trap_hessian([1.0] * n, c, 2.0), force)
        # damping keeps the ordering when the initial guess is far off
        gap = min((abs(y - x) for x, y in zip(u, u[1:])), default=1.0)  # a lone ion
        scale = min(1.0, 0.5 * gap / max(max(map(abs, step)), 1e-300))
        u = [ui - scale * si for ui, si in zip(u, step)]
        if math.hypot(*force) <= 4.0 * n * _EPS * max(1.0, *map(abs, u)):
            return tuple(ui * ell for ui in u)
    raise RuntimeError(f"equilibrium search did not converge in {_MAX_ITERATIONS} iterations")


def _hessian(spec: ChainSpec, z, direction: str) -> list[list[float]]:
    c = [[K_COUL * x for x in row] for row in _curvatures(z)]
    if direction == "axial":
        return _trap_hessian([spec.axial_spring] * spec.n_ions, c, 2.0)
    if direction == "radial":
        return _trap_hessian(spec.radial_springs(), c, -1.0)
    raise ValueError(f"direction must be axial or radial, got {direction!r}")


@dataclass(frozen=True)
class ModeTable:
    """Normal-mode frequencies and participation of one trap direction."""

    direction: str
    frequencies: tuple[float, ...]                # Hz, per mode
    participation: tuple[tuple[float, ...], ...]  # orthonormal b, [ion][mode]
    displacement: tuple[tuple[float, ...], ...]   # unit-norm patterns, [ion][mode]
    residuals: tuple[float, ...]                  # relative, of H u = w^2 M u, per mode
    masses_amu: tuple[float, ...]


def normal_modes(spec: ChainSpec, direction: str) -> ModeTable:
    """Solve the mass-weighted eigenproblem for one trap direction.

    Raises ValueError with the offending mode named if a radial mode is
    unstable (nonpositive squared frequency).
    """
    h = _hessian(spec, equilibrium_positions(spec), direction)
    m = spec.masses_kg
    w2, b = _eigh([[x / math.sqrt(mi * mj) for x, mj in zip(row, m)]
                   for row, mi in zip(h, m)])  # ascending
    modes = list(zip(w2, zip(*b)))  # (w^2, participation column) per mode
    if direction == "radial":
        modes.reverse()  # printed convention: descending
    for k, (w, _) in enumerate(modes):
        if w <= 0:  # the first unstable mode
            raise ValueError(
                f"unstable configuration: {direction} mode {k + 1} has "
                f"omega^2 = {w:.3e} <= 0 (weaken the axial confinement)")
    parts, disps, residuals = [], [], []
    for w, col in modes:
        # sign convention: largest-magnitude component positive per mode
        if max(col, key=abs) < 0:
            col = tuple(-x for x in col)
        u = [x / math.sqrt(mi) for x, mi in zip(col, m)]
        hu = [sum(x * y for x, y in zip(row, u)) for row in h]
        residuals.append(math.hypot(*(y - w * (mi * ui) for y, mi, ui in zip(hu, m, u)))
                         / math.hypot(*hu))
        norm = math.hypot(*u)
        parts.append(col)
        disps.append([x / norm for x in u])
    return ModeTable(direction=direction,
                     frequencies=tuple(math.sqrt(w) / (2.0 * math.pi) for w, _ in modes),
                     participation=tuple(zip(*parts)), displacement=tuple(zip(*disps)),
                     residuals=tuple(residuals), masses_amu=tuple(spec.masses_amu))


def calibrate_reference_frequencies(
        masses_amu=YB_BA_BA_MASSES,
        axial_targets_hz=YB_BA_BA_AXIAL_HZ,
        radial_targets_hz=YB_BA_BA_RADIAL_HZ,
        reference_mass_amu: float = MASS_BA_138) -> ChainSpec:
    """Fit the single-ion reference frequencies to a measured mode table.

    The single-ion frequencies behind a published table are often not printed;
    this least-squares fit recovers them.  Axial frequencies scale linearly
    with the axial reference (closed-form fit).  The radial Hessian is linear
    in ``s = (2 pi f_r)^2`` (James, Appl. Phys. B 66, 181 (1998)), so each
    solve's participations give its slopes (Feynman, Phys. Rev. 56, 340
    (1939)), ``d f_j / d f_r = (f_r / f_j) sum_i b_ij^2 (m_ref / m_i)^2``, and
    Gauss-Newton steps fit the radial reference.  They start at the top of
    ``[0.5, 3.0] x max(radial targets)``, stable if any point is, since every
    radial eigenvalue grows with ``s``.  Each solve shrinks that bracket to
    its downhill side; a step out of it bisects it instead (undamped steps
    can overshoot ever further on large residuals), and a step to an unstable
    point is halved.  A step below ``1e-12`` relative stops the iteration (6
    radial solves on the Yb-Ba-Ba table).
    """
    probe = ChainSpec(masses_amu=tuple(masses_amu), axial_freq_ref=1e5,
                      radial_freq_ref=1e6, reference_mass_amu=reference_mass_amu)
    ratios = [f / 1e5 for f in normal_modes(probe, "axial").frequencies]
    axial_ref = sum(r * f for r, f in zip(ratios, axial_targets_hz)) / sum(r * r for r in ratios)
    rad = [float(f) for f in radial_targets_hz]
    weights = [(reference_mass_amu / m) ** 2 for m in probe.masses_amu]
    lo, hi = 0.5 * max(rad), 3.0 * max(rad)
    spec = replace(probe, axial_freq_ref=axial_ref, radial_freq_ref=hi)
    table = normal_modes(spec, "radial")
    for _ in range(_MAX_ITERATIONS):
        fr = spec.radial_freq_ref
        slopes = [fr / f * sum(w * x * x for w, x in zip(weights, col))
                  for f, col in zip(table.frequencies, zip(*table.participation))]
        grad = sum(g * (f - r) for g, f, r in zip(slopes, table.frequencies, rad))
        lo, hi = (lo, fr) if grad > 0 else (fr, hi)  # the minimum lies downhill
        trial = fr - grad / sum(g * g for g in slopes)
        if not lo <= trial <= hi:  # an overshoot: bisect the bracket instead
            trial = 0.5 * (lo + hi)
        while abs(trial - fr) > 1e-12 * fr:
            try:
                table = normal_modes(replace(spec, radial_freq_ref=trial), "radial")
                break
            except ValueError:  # unstable, as is every point below: halve the step
                lo, trial = trial, 0.5 * (fr + trial)
        else:
            return spec
        spec = replace(spec, radial_freq_ref=trial)
    raise RuntimeError(f"radial calibration did not converge in {_MAX_ITERATIONS} steps")


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
    ratios beside their closed form, the coolant's (ion 0) displacement in
    each radial mode, flagged below 0.1, and the largest eigenproblem
    residual of each direction.  A Yb-Ba-Ba chain's summary also gives each
    mode's frequency minus the measured ``YB_BA_BA_*_HZ`` table, the
    calibration's residuals."""
    tables = {d: normal_modes(spec, d) for d in ("axial", "radial")}
    rad = tables["radial"]
    files = {}
    for d, t in tables.items():
        files[f"modes_{d}.csv"] = {
            "mode": [f"{d}_{k}" for k in range(1, len(t.frequencies) + 1)],
            **{f"ion{i}_mass{m:g}": [f"{x:.3f}" for x in u]
               for i, (m, u) in enumerate(zip(t.masses_amu, t.displacement))},
            "frequency_khz": [f / 1e3 for f in t.frequencies]}
    eq = normal_modes(replace(spec, masses_amu=(MASS_BA_138,) * 3), "axial").frequencies
    files["modes_summary.json"] = {
        "axial_freq_ref_hz": spec.axial_freq_ref,
        "radial_freq_ref_hz": spec.radial_freq_ref,
        "axial_frequencies_hz": list(tables["axial"].frequencies),
        "radial_frequencies_hz": list(rad.frequencies),
        "equal_mass_axial_ratios": [f / eq[0] for f in eq],
        "equal_mass_expected": [1.0, 3.0 ** 0.5, (29.0 / 5.0) ** 0.5],
        "radial_coolant_coupling": [
            {"mode": k + 1, "frequency_hz": f, "participation": abs(x),
             "below_floor": abs(x) < 0.1}
            for k, (f, x) in enumerate(zip(rad.frequencies, rad.displacement[0]))],
        "max_eigen_residual": {d: max(t.residuals) for d, t in tables.items()},
    }
    if spec.masses_amu == YB_BA_BA_MASSES:
        files["modes_summary.json"]["table_residuals_hz"] = {
            d: [f - r for f, r in zip(tables[d].frequencies, table)]
            for d, table in (("axial", YB_BA_BA_AXIAL_HZ), ("radial", YB_BA_BA_RADIAL_HZ))}
    return files
