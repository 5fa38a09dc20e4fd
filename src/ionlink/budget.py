"""Error and efficiency budget ledgers: the paper's predicted infidelity
budget of the heralded two-ion state and its photon-collection chain.

Both are a few lines of float arithmetic on ``HardwareConfig``, so this
module imports ``config`` alone: a ``budget`` run loads neither numpy nor the
density-matrix layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import HardwareConfig, dephasing_infidelity


@dataclass(frozen=True)
class BudgetLedger:
    """Named additive contributions with their total."""

    entries: tuple[tuple[str, float], ...]
    total: float

    def __init__(self, entries):
        entries = tuple((str(k), float(v)) for k, v in entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "total", sum(v for _, v in entries))

    def as_dict(self) -> dict:
        out = dict(self.entries)
        out["total"] = self.total
        return out

    def to_text(self) -> str:
        width = max(len(k) for k, _ in self.entries + (("total", 0.0),))
        lines = [f"{k:<{width}}  {100.0 * v:6.3f} %" for k, v in self.entries]
        lines.append(f"{'total':<{width}}  {100.0 * self.total:6.3f} %")
        return "\n".join(lines)


def error_budget(cfg: HardwareConfig) -> BudgetLedger:
    """First-order additive infidelity budget of the heralded two-ion state.

    polarization: exact Werner-admixture propagation of both sources' photon
    depolarizing through the swap, ``(3/4) w_pol`` with
    ``w_pol = 1 - (1-pA)(1-pB)`` from ``HardwareConfig.polarization_weight``.
    coherence: pair dephasing over the analysis delay at the exponential
    pair envelope.  other: wavepacket-overlap contrast loss plus the incoherent
    dark-count and double-excitation admixtures.

    The exact state is ``swap.swapped_state``: it reads the same
    ``polarization_weight``, the pair dephasing and the overlap multiply one
    coherence factor (``HardwareConfig.herald_coherence``) and the admixtures
    combine into one weight (``HardwareConfig.mixed_herald_weight``).  The
    ledger and that state are compared in tests, not conflated.
    """
    polarization = 0.75 * cfg.polarization_weight()
    coherence = dephasing_infidelity(cfg.analysis_delay, cfg.t2_star_bell,
                                     "exponential")
    other = (0.5 * (1.0 - cfg.temporal_overlap)
             + 0.75 * cfg.dark_herald_weight()
             + 0.75 * cfg.double_excitation_prob)
    return BudgetLedger([("polarization", polarization),
                         ("coherence", coherence),
                         ("other", other)])


# Printed per-stage efficiencies of the photon collection chain, in path
# order from state preparation to detector.
DEFAULT_EFFICIENCY_CHAIN = (
    ("optical pumping", 0.96),
    ("pulsed excitation", 0.96),
    ("useful branching ratio", 0.732),
    ("objective solid angle", 0.20),
    ("trap-rod clearance", 0.97),
    ("objective transmission", 0.91),
    ("fiber coupling", 0.30),
    ("detector quantum efficiency", 0.71),
)


@dataclass(frozen=True)
class EfficiencyReport:
    """Multiplicative efficiency chain with per-stage attribution."""

    stages: tuple[tuple[str, float, float], ...]  # (label, factor, running)
    total: float

    def as_dict(self) -> dict:
        return {
            "stages": [{"label": l, "factor": f, "running": r}
                       for l, f, r in self.stages],
            "total": self.total,
        }

    def to_text(self) -> str:
        width = max(len(l) for l, _, _ in self.stages)
        lines = [f"{l:<{width}}  {f:7.4f}  -> {100.0 * r:7.4f} %"
                 for l, f, r in self.stages]
        lines.append(f"{'total':<{width}}  {'':7}     {100.0 * self.total:7.4f} %")
        return "\n".join(lines)


def efficiency_budget(chain=DEFAULT_EFFICIENCY_CHAIN) -> EfficiencyReport:
    """Running product of a chain of ``(label, factor)`` efficiencies."""
    stages = []
    running = 1.0
    for item in chain:
        label, factor = item
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"factor for {label!r} must be in (0, 1], got {factor}")
        running *= factor
        stages.append((label, float(factor), running))
    return EfficiencyReport(stages=tuple(stages), total=running)


def budget_outputs(cfg: HardwareConfig) -> tuple[dict, str]:
    """The ``budget`` run: both ledgers as CSV tables and together in
    ``budget.json``, and the text it prints."""
    err, eff = error_budget(cfg), efficiency_budget()
    return {
        "error_budget.csv": dict(zip(("contribution", "fraction"),
                                     zip(*err.as_dict().items()))),
        "efficiency_budget.csv": dict(zip(("stage", "factor", "running_product"),
                                          zip(*eff.stages))),
        "budget.json": {"error_budget": err.as_dict(), "efficiency_chain": eff.as_dict()},
    }, (f"error budget\n{err.to_text()}\n\n"
        f"photon collection chain\n{eff.to_text()}\n")
