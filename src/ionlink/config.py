"""Hardware configuration: every physical parameter of the simulated link.

The configuration is the parameter dictionary of the modeled experiment: two
trapped-ion photon sources (A and B) feeding a fiber Bell-state analyzer,
with an optional sympathetic coolant that removes the need for periodic
recooling breaks.  Field-by-field symbol map:

=====================  =======================================================
field                  meaning
=====================  =======================================================
eta_a, eta_b           all-in single-photon detection probability per attempt
pol_mixing_a/_b        photon depolarizing strength of each imaging path
phi_a, phi_b           static superposition phases from fiber birefringence
delta_hz               qubit frequency difference (omega_B - omega_A)/2pi
t2_star_bell           entangled-pair coherence time
analysis_delay         wait between herald and the first analysis pulse
temporal_overlap       photon wavepacket mode overlap at the beamsplitter
dark_count_prob        probability of a fake coincidence per attempt window
double_excitation_prob residual error weight (double excitation, crosstalk, background)
attempt_duration       one entanglement attempt (pump + excite + collect)
cooling_duration       one Doppler recooling interval
loop_cap_no_coolant    attempts between recooling breaks without the coolant
loop_cap_with_coolant  attempt cap N per request with the coolant
decay_a/_b/_c          attempt success model p(n) = A exp(-B n) + C
readout_*              fluorescence readout model (see detection module)
=====================  =======================================================

Defaults constitute the *predicted* error profile: the error-budget entries
evaluate to 2.9% (polarization), ~0.3% (pair coherence) and ~0.4% (temporal
mismatch + dark counts), totaling ~3.6%.  :func:`measured_swap_config` returns
the companion profile calibrated to the measured two-ion tomography numbers
(odd populations 97.6%, coherences 92.5%), which are worse than predicted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .rate_model import MAX_LOOP_CAP

if TYPE_CHECKING:  # imported where used, so loading a config needs no quantum layer
    from .ion_photon import SourceParams

TWO_PI = 2.0 * math.pi

# --- calibrated default constants -------------------------------------------

# Photon depolarizing per imaging system such that the swapped-state
# polarization infidelity (3/4)(1 - (1-p)^2) equals the predicted 2.9%.
# The implied correlation contrast 1 - p = 0.9805 is consistent with the
# measured per-system contrasts within their uncertainty.
POL_MIXING_PREDICTED = 1.0 - math.sqrt(1.0 - 4.0 * 0.029 / 3.0)

# Dark-count probability per coincidence window such that the dark-count
# admixture weight w = p_dark/(p_herald + p_dark) contributes 0.2% infidelity
# (3/4 w), half of the 0.4% "other" budget; the temporal-overlap default
# contributes the remaining half.
_W_DARK_TARGET = 4.0 * 0.002 / 3.0
DARK_COUNT_DEFAULT = _W_DARK_TARGET * (0.5 * 0.023 * 0.022) / (1.0 - _W_DARK_TARGET)
TEMPORAL_OVERLAP_DEFAULT = 0.996

# Attempt-success decay reconstructions p(n) = A exp(-B n) + C.  The fitted
# values behind the reference rate curves are unpublished; these are chosen to
# reproduce the reference anchors and are labeled reconstructions.
#   no-coolant: p(0) = 2.53e-4 (the fresh, fully cooled value 0.5*eta_a*eta_b)
#               and mean success probability 2.33e-4 over a 50-attempt loop.
DECAY_NO_COOLANT = (1.1275e-4, 6.0e-3, 1.4025e-4)
#   coolant (for the analytic rate model): p(0) = 2.9e-4, mean success
#   probability 2.50e-4 at a 20000-attempt cap, CDF(20000) > 99%.
DECAY_COOLANT_RECONSTRUCTION = (4.984e-5, 1.0e-3, 2.4016e-4)


@dataclass(frozen=True)
class HardwareConfig:
    # photon sources
    eta_a: float = 0.023
    eta_b: float = 0.022
    pol_mixing_a: float = POL_MIXING_PREDICTED
    pol_mixing_b: float = POL_MIXING_PREDICTED
    phi_a: float = 5.00
    phi_b: float = 0.48
    # qubit coherence
    delta_hz: float = 984.0
    t2_star_bell: float = 38e-3
    bell_coherence_envelope: str = "exponential"
    analysis_delay: float = 210e-6
    # Bell-state analyzer imperfections
    temporal_overlap: float = TEMPORAL_OVERLAP_DEFAULT
    dark_count_prob: float = DARK_COUNT_DEFAULT
    double_excitation_prob: float = 1e-5
    swap_phase_convention: str = "b_minus_a"
    # attempt schedule
    attempt_duration: float = 1e-6
    cooling_duration: float = 100e-6
    loop_cap_no_coolant: int = 50
    loop_cap_with_coolant: int = 20000
    coolant_present: bool = False
    hardware_counter_cap: int | None = None
    # attempt success model
    decay_a: float = DECAY_NO_COOLANT[0]
    decay_b: float = DECAY_NO_COOLANT[1]
    decay_c: float = DECAY_NO_COOLANT[2]
    # fluorescence readout
    readout_duration: float = 1e-3
    bright_rate: float = 100000.0
    dark_rate: float = 1000.0
    shelving_fidelity: float = 0.987
    bright_detect_fidelity: float = 0.981

    def __post_init__(self):
        # types from the annotations: a float field takes a finite int or float,
        # the others their exact type (so True is no int and 1 no bool)
        for f in dataclasses.fields(self):
            v, kind = getattr(self, f.name), f.type.split(" | ")[0]
            if kind == "float":
                # an int past float range overflows math.isfinite: not finite
                ok = (math.isfinite(v) if isinstance(v, float)
                      else type(v) is int and abs(v) <= sys.float_info.max)
            else:
                ok = type(v) is {"int": int, "bool": bool, "str": str}[kind] or (
                    v is None and f.type.endswith("| None"))
            if not ok:
                want = "a finite number" if kind == "float" else f"of type {f.type}"
                raise ValueError(f"{f.name} must be {want}, got {v!r}")
        unit = [
            "eta_a", "eta_b", "pol_mixing_a", "pol_mixing_b",
            "temporal_overlap", "dark_count_prob",
            "double_excitation_prob", "decay_a", "decay_c",
        ]
        for name in unit:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        for name in ("shelving_fidelity", "bright_detect_fidelity"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:  # the range ReadoutModel takes
                raise ValueError(f"{name} must be in (0, 1], got {v}")
        for name in ("phi_a", "phi_b"):
            v = getattr(self, name)
            if not 0.0 <= v < TWO_PI:
                raise ValueError(f"{name} must be in [0, 2*pi), got {v}")
        positive = ["t2_star_bell", "attempt_duration", "cooling_duration",
                    "readout_duration"]
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.attempt_duration < 1e-9:  # scheduled in whole ns
            raise ValueError(f"attempt_duration must be at least 1 ns, "
                             f"got {self.attempt_duration!r}")
        nonneg = ["delta_hz", "analysis_delay", "decay_b", "bright_rate",
                  "dark_rate"]
        for name in nonneg:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.decay_a + self.decay_c > 1.0:
            raise ValueError("decay_a + decay_c must not exceed 1")
        if self.decay_c <= 0.0:
            raise ValueError("decay_c must be positive (guarantees eventual success)")
        for name in ("loop_cap_no_coolant", "loop_cap_with_coolant",
                     "hardware_counter_cap"):
            v = getattr(self, name)
            if v is not None and not 1 <= v <= MAX_LOOP_CAP:  # None: no counter
                raise ValueError(f"{name} must be an integer in "
                                 f"[1, {MAX_LOOP_CAP}], got {v!r}")
        if self.bell_coherence_envelope not in ("gaussian", "exponential"):
            raise ValueError("bell_coherence_envelope must be gaussian|exponential")
        if self.swap_phase_convention not in ("b_minus_a", "a_minus_b"):
            raise ValueError("swap_phase_convention must be b_minus_a|a_minus_b")

    # --- derived quantities --------------------------------------------------

    @property
    def delta(self) -> float:
        """Qubit frequency difference in rad/s."""
        return TWO_PI * self.delta_hz

    def swap_phase(self) -> float:
        """Static phase of the heralded two-ion superposition (rad)."""
        if self.swap_phase_convention == "b_minus_a":
            return self.phi_b - self.phi_a
        return self.phi_a - self.phi_b

    def herald_probability(self) -> float:
        """Per-attempt probability of a true coincidence herald."""
        return 0.5 * self.eta_a * self.eta_b

    def dark_herald_weight(self) -> float:
        """Fraction of heralds that are dark-count fakes."""
        p_true = self.herald_probability()
        p_dark = self.dark_count_prob
        if p_true + p_dark == 0.0:
            return 0.0
        return p_dark / (p_true + p_dark)

    def source_a(self) -> SourceParams:
        from .ion_photon import SourceParams
        return SourceParams(pol_mixing=self.pol_mixing_a,
                            superposition_phase=self.phi_a % TWO_PI)

    def source_b(self) -> SourceParams:
        from .ion_photon import SourceParams
        return SourceParams(pol_mixing=self.pol_mixing_b,
                            superposition_phase=self.phi_b % TWO_PI)

    def bell_coherence_factor(self, t: float) -> float:
        """Pair-coherence contrast envelope at time ``t`` after the herald."""
        from .ion_photon import dephasing_infidelity
        return 1.0 - 2.0 * dephasing_infidelity(t, self.t2_star_bell,
                                                self.bell_coherence_envelope)

    def herald_coherence(self, t: float) -> float:
        """Scale of the heralded ion-A coherences at ``t``: envelope times overlap."""
        return self.bell_coherence_factor(t) * self.temporal_overlap

    def polarization_weight(self) -> float:
        """Weight of ``I/4`` in the heralded state from both sources' photon
        depolarizing: ``1 - (1 - pol_mixing_a)(1 - pol_mixing_b)``."""
        return 1.0 - (1.0 - self.pol_mixing_a) * (1.0 - self.pol_mixing_b)

    def mixed_herald_weight(self) -> float:
        """Weight of ``I/4`` in the heralded state: fake and double-excitation heralds."""
        return 1.0 - (1.0 - self.dark_herald_weight()) * (1.0 - self.double_excitation_prob)

    def readout_model(self):
        from .detection import ReadoutModel
        return ReadoutModel(bright_rate=self.bright_rate, dark_rate=self.dark_rate,
                            duration=self.readout_duration,
                            shelving_fidelity=self.shelving_fidelity,
                            bright_detect_fidelity=self.bright_detect_fidelity)

    # --- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "HardwareConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            # keys of mixed types (YAML allows `2: 3` beside `foo: 1`) sort as text
            raise ValueError(f"unknown config field(s): {sorted(map(str, unknown))}")
        return cls(**data)

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def load_config(path) -> HardwareConfig:
    """Read a YAML config file; a YAML syntax error, a value Python cannot
    build or an unknown or invalid field raises ValueError."""
    import yaml
    with open(path) as fh:
        try:
            data = yaml.safe_load(fh)
        # a ValueError from PyYAML's constructors: an integer past Python's
        # digit limit, or a date such as 2020-13-01
        except (yaml.YAMLError, ValueError) as exc:
            raise ValueError(f"cannot parse {path} as YAML: {exc}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ValueError("config file must contain a mapping of field: value")
    return HardwareConfig.from_dict(data)


def coolant_config(base: HardwareConfig | None = None) -> HardwareConfig:
    """Continuous-cooling profile: constant per-attempt success probability.

    With the coolant present there is no recoil decay, so the attempt success
    is the steady 2.5e-4 and the uninterrupted attempt rate is 1 MHz.
    """
    base = base if base is not None else HardwareConfig()
    return replace(base, coolant_present=True,
                   decay_a=0.0, decay_b=0.0, decay_c=2.5e-4)


def measured_swap_config(base: HardwareConfig | None = None) -> HardwareConfig:
    """Error profile calibrated to the measured two-ion state.

    The predicted budget underestimates the observed infidelity; this profile
    raises the polarization mixing and lowers the temporal overlap so that, at
    the configured analysis delay, the simulated heralded state reproduces the
    measured observables: odd-parity populations of 97.6% and a two-pulse
    parity-scan maximum of 92.5%.  The exact parity-scan amplitude is
    ``(P_odd - P_even)/2 + Re(odd coherence)`` (see the analysis module), so
    the coherence chain is solved against that relation; the resulting state
    has a true overlap with the target Bell state of exactly the measured 93.7%
    fidelity bound.  A config whose admixtures or pair dephasing alone exceed
    those targets raises ValueError.
    """
    base = base if base is not None else HardwareConfig()
    w_mixed = base.mixed_herald_weight()
    pops_odd_target = 0.976
    parity_max_target = 0.925
    unreachable = (f"the measured profile cannot reach odd populations "
                   f"{pops_odd_target} and a parity maximum {parity_max_target}")
    limit = 2.0 * (1.0 - pops_odd_target)
    if not w_mixed <= limit:
        raise ValueError(f"{unreachable}: the dark-count and double-excitation "
                         f"admixtures {w_mixed:.3g} exceed {limit:.3g}")
    w_pol = (limit - w_mixed) / (1.0 - w_mixed)
    pol_each = 1.0 - math.sqrt(1.0 - w_pol)
    coherence_target = parity_max_target - (2.0 * pops_odd_target - 1.0) / 2.0
    gamma = replace(base, temporal_overlap=1.0).herald_coherence(base.analysis_delay)
    reach = (1.0 - w_pol) * gamma * (1.0 - w_mixed)
    if not reach >= 2.0 * coherence_target:
        raise ValueError(f"{unreachable}: the pair coherence {gamma:.3g} at "
                         f"analysis_delay is too low")
    overlap = 2.0 * coherence_target / reach
    return replace(base, pol_mixing_a=pol_each, pol_mixing_b=pol_each,
                   temporal_overlap=overlap)


def ideal_config(base: HardwareConfig | None = None) -> HardwareConfig:
    """All-error-off profile used for sanity checks."""
    base = base if base is not None else HardwareConfig()
    return replace(base,
                   pol_mixing_a=0.0, pol_mixing_b=0.0,
                   t2_star_bell=1e9,
                   temporal_overlap=1.0, dark_count_prob=0.0,
                   double_excitation_prob=0.0,
                   shelving_fidelity=1.0, bright_detect_fidelity=1.0)
