"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line.  Tolerances are fixed here and nowhere else; runtimes are bounded by
the criterion statements (the heaviest is the 1e6-request CDF comparison)."""

from dataclasses import replace

import numpy as np
from scipy.integrate import quad

from ionlink import analysis, budget, modes, protocol, rate_model, swap
from ionlink.cli import main as cli_main
from ionlink.config import (
    DECAY_COOLANT_RECONSTRUCTION,
    HardwareConfig,
    coolant_config,
    dephasing_infidelity,
    ideal_config,
)
from ionlink.detection import ConfusionMatrix, ReadoutModel, choose_thresholds, \
    simulate_histogram, spam_correct
from ionlink.ion_photon import emit_ion_photon_state
from ionlink.quantum import fidelity_pure
from qutil import (
    YB_BA_BA_AXIAL_DISPLACEMENT,
    YB_BA_BA_RADIAL_DISPLACEMENT,
    bell_phase,
    cdf,
    density,
    empirical_cdf,
    ideal_pair_state,
    pdf,
)


def _report(index: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {index:2d} {name}: {status}{suffix}")
    assert ok, f"criterion {index} ({name}) failed: {detail}"


def test_criterion_01_efficiency_chain():
    total = budget.efficiency_budget().total
    _report(1, "efficiency chain", abs(total - 0.025) <= 0.001,
            f"product = {total:.4f}")


def test_criterion_02_herald_probability():
    cfg = HardwareConfig()
    p = cfg.herald_probability()
    ok_value = abs(p - 2.53e-4) < 1e-8 and abs(p - 2.50e-4) <= 1.6e-5
    # the campaign kernel's share of requests that herald on their first
    # attempt is p(0) = decay_a + decay_c; ten campaigns of 10^6 requests
    requests = 10_000_000
    first = sum(int(np.count_nonzero(
        protocol.simulate_campaign(cfg, requests // 10, master_seed).attempts_used == 1))
        for master_seed in range(2024, 2034))
    fraction = first / requests
    sigma = np.sqrt(p * (1 - p) / requests)
    ok_mc = abs(fraction - p) < 3 * sigma
    _report(2, "herald probability", ok_value and ok_mc,
            f"analytic {p:.3e}, MC first-attempt fraction {fraction:.3e} "
            f"(3-sigma {3 * sigma:.2e})")


def test_criterion_03_rates():
    requests = 100_000
    # no coolant: constant p = 2.33e-4 on the 50 x 1us + 100us schedule
    p = 2.33e-4
    cfg = replace(HardwareConfig(), decay_a=0.0, decay_b=0.0, decay_c=p)
    ok_eff = abs(protocol.effective_attempt_rate(cfg) - 1e6 / 3.0) < 1e-6
    rep = protocol.simulate_campaign(cfg, requests, master_seed=303)
    cap = 50
    q = 1.0 - (1.0 - p) ** cap
    e_wall = ((1.0 - (1.0 - p) ** cap) / p / q) * 1e-6 + (1.0 / q - 1.0) * 100e-6
    expected = 1.0 / e_wall
    sigma = expected / np.sqrt(requests)
    ok_no = (abs(rep.rate_hz - expected) < 3 * sigma
             and abs(expected - 78.0) < 2.0)
    # coolant: constant p = 2.50e-4 at the full 1 MHz attempt rate
    ccfg = coolant_config()
    crep = protocol.simulate_campaign(ccfg, requests, master_seed=304)
    total_attempts = int(crep.attempts_used.sum())
    sigma_p = np.sqrt(2.5e-4 / total_attempts)
    sigma_rate = sigma_p * 1e6
    ok_cool = abs(crep.rate_attempts_only_hz - 250.0) < 3 * sigma_rate
    _report(3, "entanglement rates", ok_eff and ok_no and ok_cool,
            f"no-coolant {rep.rate_hz:.1f}/s (expect {expected:.1f}), "
            f"coolant {crep.rate_attempts_only_hz:.1f}/s (expect 250.0)")


def test_criterion_04_fidelity_bound_arithmetic():
    value = analysis.fidelity_lower_bound(
        analysis.FidelityBoundInputs(0.976, 0.925, 0.027))
    _report(4, "fidelity-bound arithmetic", abs(value - 0.937) < 1e-12,
            f"bound = {value:.6f}")


def test_criterion_05_error_budget():
    cfg = HardwareConfig()
    ledger = budget.error_budget(cfg)
    entries = dict(ledger.entries)
    ok_entries = (abs(entries["polarization"] - 0.029) <= 5e-4
                  and abs(entries["coherence"] - 0.003) <= 5e-4
                  and abs(entries["other"] - 0.004) <= 5e-4
                  and abs(ledger.total - 0.036) <= 5e-4)
    t = cfg.analysis_delay
    rho = swap.swapped_state(cfg, +1, t)
    target = swap.bell_state(+1, bell_phase(cfg.delta, t, cfg.swap_phase()))
    infidelity = 1.0 - fidelity_pure(rho, target)
    ok_full = abs(infidelity - ledger.total) <= 5e-3
    _report(5, "error budget", ok_entries and ok_full,
            f"ledger {100 * ledger.total:.2f}%, full-state {100 * infidelity:.2f}%")


def test_criterion_06_dephasing_convention():
    value = dephasing_infidelity(40e-6, 550e-6)
    _report(6, "dephasing convention", abs(value - 0.0026) <= 1e-4,
            f"infidelity(40us, 550us) = {100 * value:.4f}%")


def test_criterion_07_rate_model():
    rng = np.random.default_rng(707)
    ok_norm = True
    for _ in range(10):
        c = rng.uniform(2e-4, 2e-3)
        params = rate_model.DecayParams(a=rng.uniform(0.0, 2.0 * c),
                                        b=rng.uniform(1e-4, 1e-2), c=c)
        total, _ = quad(lambda x: pdf(x, params), 0.0, np.inf,
                        limit=500)
        ok_norm = ok_norm and abs(total - 1.0) <= 1e-8

    params = rate_model.DecayParams(*DECAY_COOLANT_RECONSTRUCTION)
    ok_cdf = True
    for n in np.linspace(100.0, 40000.0, 12):
        integral, _ = quad(lambda x: pdf(x, params), 0.0, n,
                           epsabs=1e-13, limit=500)
        ok_cdf = ok_cdf and abs(cdf(n, params) - integral) <= 1e-10

    ok_anchor = cdf(20000.0, params) > 0.99

    # Monte Carlo attempts-used CDF vs the analytic closed form, 1e6 requests
    cap = 80_000
    cfg = replace(HardwareConfig(), decay_a=params.a, decay_b=params.b,
                  decay_c=params.c, loop_cap_no_coolant=cap)
    rep = protocol.simulate_campaign(cfg, 1_000_000, master_seed=777)
    grid = np.unique(np.concatenate([np.arange(1, 200),
                                     np.geomspace(200, cap, 400).astype(int)]))
    emp = empirical_cdf(rep, grid)
    ana = cdf(grid.astype(float), params)
    sup = float(np.max(np.abs(emp - ana)))
    ok_mc = sup < 0.01
    _report(7, "rate model", ok_norm and ok_cdf and ok_anchor and ok_mc,
            f"sup-norm {sup:.4f}, CDF(20000) = {cdf(20000.0, params):.4f}")


def test_criterion_08_mode_table():
    spec = modes.calibrate_reference_frequencies()
    ax = modes.normal_modes(spec, "axial")
    rad = modes.normal_modes(spec, "radial")
    ok_freq = (np.max(np.abs(ax.frequencies - modes.YB_BA_BA_AXIAL_HZ)) < 500.0
               and np.max(np.abs(rad.frequencies - modes.YB_BA_BA_RADIAL_HZ)) < 500.0)
    ok_vec = True
    for table, printed in ((ax, YB_BA_BA_AXIAL_DISPLACEMENT),
                           (rad, YB_BA_BA_RADIAL_DISPLACEMENT)):
        printed = np.asarray(printed)
        for m in range(3):
            dev = min(np.max(np.abs(table.displacement[:, m] - printed[:, m])),
                      np.max(np.abs(table.displacement[:, m] + printed[:, m])))
            ok_vec = ok_vec and dev <= 1e-3
    ok_orth = True
    for table in (ax, rad):
        b = table.participation
        ok_orth = (ok_orth
                   and np.max(np.abs(b.T @ b - np.eye(3))) < 1e-10
                   and np.max(np.abs(b @ b.T - np.eye(3))) < 1e-10)
    eq = modes.normal_modes(replace(spec, masses_amu=(modes.MASS_BA_138,) * 3),
                            "axial").frequencies
    ratios = eq / eq[0]
    ok_ratio = (abs(ratios[1] - np.sqrt(3.0)) < 1e-9
                and abs(ratios[2] - np.sqrt(29.0 / 5.0)) < 1e-9)
    _report(8, "mode table", ok_freq and ok_vec and ok_orth and ok_ratio,
            f"axial {np.round(ax.frequencies / 1e3, 1)} kHz, "
            f"radial {np.round(rad.frequencies / 1e3, 1)} kHz")


def test_criterion_09_ideal_physics():
    cfg = ideal_config()
    pair_fid = fidelity_pure(emit_ion_photon_state(cfg.source_a()),
                             ideal_pair_state(cfg.phi_a))
    ion_fids = [fidelity_pure(swap.aligned_state_from_config(cfg, s),
                              swap.bell_state(+1, 0.0)) for s in (+1, -1)]
    scan = analysis.parity_scan(density(swap.bell_state(+1, 0.0)),
                                np.linspace(0, np.pi, 25), pulses="two")
    ok = (abs(pair_fid - 1.0) < 1e-9
          and all(abs(f - 1.0) < 1e-9 for f in ion_fids)
          and abs(scan.contrast - 1.0) < 1e-9)
    _report(9, "ideal-physics sanity", ok,
            f"pair {pair_fid:.12f}, ion-ion {min(ion_fids):.12f}, "
            f"parity contrast {scan.contrast:.12f}")


def test_criterion_10_spam_and_thresholds():
    model = ReadoutModel()
    rng = np.random.default_rng(1010)
    hists = [simulate_histogram(k, model, 50_000, rng) for k in range(3)]
    thr = choose_thresholds(hists)
    cm = ConfusionMatrix.from_model(model, thr.t1, thr.t2)
    ok_fid = all(cm.matrix[k, k] >= 0.98 for k in range(3))
    ok_round = True
    for _ in range(10):
        p = rng.dirichlet(np.ones(3))
        out = spam_correct(p @ cm.matrix, cm)
        ok_round = ok_round and np.max(np.abs(out.populations - p)) < 1e-10
    _report(10, "SPAM round-trip", ok_fid and ok_round,
            f"per-class fidelities {np.round(np.diag(cm.matrix), 4)}")


def test_criterion_11_determinism(tmp_path):
    jobs = [
        (["budget"], []),
        (["ion-photon"], []),
        (["modes"], []),
        (["rate"], ["--trials", "2000"]),
        (["swap"], ["--trials", "5000"]),
    ]
    ok = True
    for command, extra in jobs:
        outs = []
        for run_id in ("x", "y"):
            out = tmp_path / f"{command[0]}-{run_id}"
            code = cli_main(command + ["--seed", "99", "--out", str(out)] + extra)
            ok = ok and code == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        ok = ok and outs[0] == outs[1]
    _report(11, "determinism", ok, "all subcommands byte-identical on rerun")
