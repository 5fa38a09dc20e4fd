from dataclasses import replace

import numpy as np
import pytest

from ionlink.analysis import (
    FidelityBoundInputs,
    apply_analysis_pulse,
    fidelity_lower_bound,
    parity_scan,
    swap_experiment,
)
from ionlink.budget import (
    DEFAULT_EFFICIENCY_CHAIN,
    BudgetLedger,
    efficiency_budget,
    error_budget,
)
from ionlink.config import HardwareConfig, ideal_config, measured_swap_config
from ionlink.detection import ConfusionMatrix
from ionlink.quantum import DensityMatrix, fidelity_pure, superposition
from ionlink.swap import (
    aligned_state_from_config,
    bell_state,
    phase_alignment_delay,
    swapped_state,
)
from qutil import bell_phase, density, literal_swapped_state

PHASES = np.linspace(0.0, np.pi, 25)


def test_two_pulse_scan_ideal_state():
    scan = parity_scan(density(bell_state(+1, 0.0)), PHASES, pulses="two")
    assert scan.contrast == pytest.approx(1.0, abs=1e-10)


def test_two_pulse_scan_after_alignment_pipeline():
    cfg = ideal_config()
    rho = aligned_state_from_config(cfg, sign=+1)
    scan = parity_scan(rho, PHASES, pulses="two")
    assert scan.contrast == pytest.approx(1.0, abs=1e-10)


def test_zero_coherence_states():
    # fully mixed: no coherence and no population imbalance, flat either way
    mixed = DensityMatrix(np.eye(4) / 4, (2, 2))
    assert parity_scan(mixed, PHASES, pulses="two").contrast < 1e-12
    assert parity_scan(mixed, PHASES, pulses="one").contrast < 1e-12
    # a classical odd mixture has no coherence but full population imbalance:
    # its one-pulse scan is flat while the two-pulse scan still swings by
    # (P_odd - P_even)/2 - parity amplitude alone does not certify coherence
    odd_mix = DensityMatrix(np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex), (2, 2))
    assert parity_scan(odd_mix, PHASES, pulses="one").contrast < 1e-12
    assert parity_scan(odd_mix, PHASES, pulses="two").contrast == \
        pytest.approx(0.5, abs=1e-12)


def test_one_pulse_scan_measures_even_coherence():
    # state with a pure even coherence: (|dd> + |uu>)/sqrt(2)
    phi_plus = density(superposition([(1.0, (0, 0)), (1.0, (1, 1))], (2, 2)))
    scan = parity_scan(phi_plus, PHASES, pulses="one")
    assert scan.contrast == pytest.approx(1.0, abs=1e-10)
    # while the ideal odd state shows none: its one-pulse parity is constant
    scan_odd = parity_scan(density(bell_state(+1, 0.0)), PHASES, pulses="one")
    assert scan_odd.contrast < 1e-12
    assert np.allclose(scan_odd.series["parity"], 1.0, atol=1e-12)


def test_phase_alignment_delay_rejects_a_vanishing_delta():
    # a subnormal frequency difference puts the alignment past float range
    with pytest.raises(ValueError, match="too small"):
        phase_alignment_delay(5e-324, 1.0)
    assert phase_alignment_delay(1e-300, np.pi) == pytest.approx(np.pi * 1e300)


def test_two_pulse_amplitude_identity():
    # exact relation: two-pulse amplitude = (P_odd - P_even)/2 + Re(m) + Re(e)
    # with m the odd and e the even coherence; the population imbalance term
    # is why treating the amplitude as the bare coherence overstates it
    cfg = measured_swap_config()
    for sign, target in ((+1, 0.0), (-1, np.pi)):
        t = phase_alignment_delay(cfg.delta, cfg.swap_phase(), target=target)
        rho = swapped_state(cfg, sign, t)
        pops = np.real(np.diag(rho.matrix))
        m = rho.matrix[2, 1]
        e = rho.matrix[0, 3]
        expected = (pops[1] + pops[2] - pops[0] - pops[3]) / 2.0 \
            + np.real(m) + np.real(e)
        scan = parity_scan(rho, PHASES, pulses="two")
        assert scan.contrast == pytest.approx(expected, abs=1e-10)


def test_measured_profile_reproduces_reference_scan():
    # the minus herald aligns after ~223 us, the closest analog of the reference
    # wait, and its scan maximum sits at the reference 92.5% level
    cfg = measured_swap_config()
    t = phase_alignment_delay(cfg.delta, cfg.swap_phase(), target=np.pi)
    rho = swapped_state(cfg, -1, t)
    scan = parity_scan(rho, PHASES, pulses="two")
    assert scan.contrast == pytest.approx(0.925, abs=5e-3)
    pops = np.real(np.diag(rho.matrix))
    assert pops[1] + pops[2] == pytest.approx(0.976, abs=1e-6)


def test_fidelity_lower_bound_values():
    # reference combination: (0.976 + 0.925 - 0.027)/2 = 0.937 exactly
    got = fidelity_lower_bound(FidelityBoundInputs(0.976, 0.925, 0.027))
    assert got == pytest.approx(0.937, abs=1e-12)
    assert fidelity_lower_bound(FidelityBoundInputs(1.0, 1.0, 0.0)) == 1.0
    assert fidelity_lower_bound(FidelityBoundInputs(1.0, 0.0, 0.0)) == 0.5


def test_fidelity_bound_inputs_absorb_round_off():
    # the register-level reference of the noise-free - herald state rounds
    # its odd population to just above 1
    cfg = replace(ideal_config(HardwareConfig()), phi_a=0.2)
    t = phase_alignment_delay(cfg.delta, cfg.swap_phase(), target=np.pi)
    rho = literal_swapped_state(cfg, -1, t)
    odd = float(np.real(rho.matrix[1, 1] + rho.matrix[2, 2]))
    assert odd == 1.0000000000000002
    inputs = FidelityBoundInputs(odd, 1.0, 0.0)
    assert inputs.odd_populations == 1.0
    assert fidelity_lower_bound(inputs) == 1.0
    edge = FidelityBoundInputs(1.0 + 1e-12, 1.0 + 1e-12, -1e-12)
    assert (edge.odd_populations, edge.two_pulse_contrast,
            edge.one_pulse_contrast) == (1.0, 1.0, 0.0)


@pytest.mark.parametrize("bad", [1.001, -0.001, 1.0 + 2e-12, float("nan")])
def test_fidelity_bound_inputs_reject_out_of_range(bad):
    with pytest.raises(ValueError, match="must be in"):
        FidelityBoundInputs(bad, 0.5, 0.1)
    with pytest.raises(ValueError, match="must be in"):
        FidelityBoundInputs(0.9, 0.5, bad)


def test_fidelity_lower_bound_monotonicity():
    base = FidelityBoundInputs(0.9, 0.8, 0.1)
    f0 = fidelity_lower_bound(base)
    assert fidelity_lower_bound(FidelityBoundInputs(0.95, 0.8, 0.1)) > f0
    assert fidelity_lower_bound(FidelityBoundInputs(0.9, 0.85, 0.1)) > f0
    assert fidelity_lower_bound(FidelityBoundInputs(0.9, 0.8, 0.15)) < f0


def test_bound_vs_true_fidelity_convention_finding():
    # the standard bound arithmetic treats the scan amplitude as the bare
    # coherence; with the exact amplitude the combination can exceed the true
    # fidelity by (P_odd - P_even)/4 - Re(m)/2 + (one-pulse term)/2.  Checked
    # over randomized error configs: every violation must equal that
    # population-imbalance excess (a convention finding, not a model error).
    from dataclasses import replace
    rng = np.random.default_rng(77)
    cfg0 = HardwareConfig()
    for _ in range(10):
        cfg = replace(
            cfg0,
            pol_mixing_a=rng.uniform(0.0, 0.15),
            pol_mixing_b=rng.uniform(0.0, 0.15),
            temporal_overlap=rng.uniform(0.85, 1.0),
            dark_count_prob=rng.uniform(0.0, 5e-6),
        )
        rho = aligned_state_from_config(cfg, +1)
        scan2 = parity_scan(rho, PHASES, pulses="two")
        scan1 = parity_scan(rho, PHASES, pulses="one")
        pops = np.real(np.diag(rho.matrix))
        bound = fidelity_lower_bound(FidelityBoundInputs(
            float(pops[1] + pops[2]), min(1.0, scan2.contrast),
            min(1.0, scan1.contrast)))
        true_f = fidelity_pure(rho, bell_state(+1, 0.0))
        violation = bound - true_f
        if violation > 1e-9:
            imbalance = (pops[1] + pops[2] - pops[0] - pops[3]) / 4.0
            excess = imbalance - 0.5 * np.real(rho.matrix[2, 1]) \
                + 0.5 * scan1.contrast
            assert violation == pytest.approx(excess, abs=1e-9)


def test_error_budget_reference_values():
    ledger = error_budget(HardwareConfig())
    entries = dict(ledger.entries)
    assert entries["polarization"] == pytest.approx(0.029, abs=5e-4)
    assert entries["coherence"] == pytest.approx(0.003, abs=5e-4)
    assert entries["other"] == pytest.approx(0.004, abs=5e-4)
    assert ledger.total == pytest.approx(0.036, abs=5e-4)


def test_error_budget_ideal_config_is_zero():
    ledger = error_budget(ideal_config())
    for _, v in ledger.entries:
        assert v == pytest.approx(0.0, abs=1e-12)


def test_budget_matches_full_density_matrix():
    cfg = HardwareConfig()
    t = cfg.analysis_delay
    rho = swapped_state(cfg, +1, t)
    target = bell_state(+1, bell_phase(cfg.delta, t, cfg.swap_phase()))
    infidelity = 1.0 - fidelity_pure(rho, target)
    assert infidelity == pytest.approx(error_budget(cfg).total, abs=5e-3)


def test_budget_ledger_total_is_sum():
    ledger = BudgetLedger([("a", 0.01), ("b", 0.02)])
    assert ledger.total == pytest.approx(0.03, abs=1e-15)
    assert "total" in ledger.to_text()


def test_efficiency_chain_product():
    report = efficiency_budget()
    assert report.total == pytest.approx(0.02537, abs=2e-5)
    assert len(report.stages) == 8
    # running product is monotone decreasing
    runnings = [r for _, _, r in report.stages]
    assert all(b <= a for a, b in zip(runnings, runnings[1:]))


def test_efficiency_chain_variants():
    ones = [(f"s{i}", 1.0) for i in range(5)]
    assert efficiency_budget(ones).total == 1.0
    without_fiber = [(l, f) for l, f in DEFAULT_EFFICIENCY_CHAIN
                     if l != "fiber coupling"]
    assert efficiency_budget(without_fiber).total == pytest.approx(0.0846,
                                                                   abs=2e-4)
    # permutation invariance of the product
    rng = np.random.default_rng(3)
    shuffled = [DEFAULT_EFFICIENCY_CHAIN[i]
                for i in rng.permutation(len(DEFAULT_EFFICIENCY_CHAIN))]
    assert efficiency_budget(shuffled).total == pytest.approx(
        efficiency_budget().total, abs=1e-15)
    with pytest.raises(ValueError):
        efficiency_budget([("bad", 0.0)])


def test_apply_analysis_pulse_dim_check():
    with pytest.raises(ValueError):
        apply_analysis_pulse(DensityMatrix(np.eye(2) / 2, (2,)), 0.0)


def _check_swap_against_closed_form(cfg, seed):
    trials = 2_000_000
    res = swap_experiment(cfg, trials, np.random.default_rng(seed))
    states = {s: aligned_state_from_config(cfg, sign=s) for s in (+1, -1)}
    assert sum(res.sign_counts.values()) == trials
    cm = ConfusionMatrix.from_model(cfg.readout_model(), res.thresholds.t1,
                                    res.thresholds.t2)

    def moments(rho, v):
        """Mean and one-shot variance of the SPAM-corrected estimate of
        ``populations @ v`` (clipping aside): a shot in class j adds
        ``(M^-1 v)_j``, and the classes follow ``bright @ M``."""
        d = np.real(np.diagonal(rho, axis1=-2, axis2=-1))
        q = np.stack([d[..., 0], d[..., 1] + d[..., 2], d[..., 3]], axis=-1) @ cm.matrix
        u = cm.inverse @ np.asarray(v, dtype=float)
        mean = q @ u
        return mean, q @ u ** 2 - mean ** 2

    # odd populations: half of each sign's heralds, pooled
    shots = {s: n // 2 for s, n in res.sign_counts.items()}
    total = sum(shots.values())
    odd = var = 0.0
    for s in states:
        m, v = moments(states[s].matrix, (0.0, 1.0, 0.0))
        odd += shots[s] / total * m
        var += shots[s] / total ** 2 * v
    assert abs(res.odd_populations - odd) < 5.0 * np.sqrt(var)

    # parity scans: one corrected parity per phase, signs weighted by heralds
    for pulses in ("two", "one"):
        grid = res.scans[pulses].control
        sampled = res.scans[pulses].series["parity"]
        mean = np.zeros_like(grid)
        var = np.zeros_like(grid)
        for s, n in res.sign_counts.items():
            w, k = n / trials, (n // 4) // grid.size
            rotated = np.stack([apply_analysis_pulse(
                apply_analysis_pulse(states[s], 0.0) if pulses == "two" else states[s],
                phi).matrix for phi in grid])
            m, v = moments(rotated, (1.0, -1.0, 1.0))
            mean += w * m
            var += w ** 2 * v / k
        assert np.all(np.abs(sampled - mean) < 5.0 * np.sqrt(var)), pulses


def test_swap_experiment_matches_closed_form_with_perfect_readout():
    _check_swap_against_closed_form(
        replace(measured_swap_config(HardwareConfig()),
                shelving_fidelity=1.0, bright_detect_fidelity=1.0), 2024)


def test_swap_experiment_matches_closed_form_with_default_readout():
    _check_swap_against_closed_form(measured_swap_config(HardwareConfig()), 2024)


def test_swap_raw_populations_pool_counts_over_shots():
    # the first seed that draws an odd herald count for each sign, so that the
    # two population readouts hold one shot fewer than trials // 2
    cfg = measured_swap_config(HardwareConfig())
    for seed in range(100):
        res = swap_experiment(cfg, 100_000, np.random.default_rng(seed))
        if all(n % 2 for n in res.sign_counts.values()):
            break
    assert all(n % 2 for n in res.sign_counts.values())
    assert res.raw_populations.sum() == pytest.approx(1.0, abs=1e-12)


class _RecordingRng:
    """A Generator that records the name of each method looked up on it."""

    def __init__(self, rng):
        self._rng, self.calls = rng, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self._rng, name)


def test_swap_experiment_draws_each_readout_stage_at_once():
    rng = _RecordingRng(np.random.default_rng(0))
    swap_experiment(measured_swap_config(HardwareConfig()), 1000, rng)
    after_signs = rng.calls[rng.calls.index("binomial"):]
    assert after_signs == ["binomial"] + ["multinomial"] * 3
