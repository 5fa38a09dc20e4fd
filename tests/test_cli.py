import ast
import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ionlink import __version__
from ionlink.cli import main
from ionlink.config import MAX_READOUT_COUNTS, HardwareConfig, load_config


def read_all_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def run(args) -> int:
    return main(args)


def test_budget_outputs(tmp_path, capsys):
    out = tmp_path / "b"
    assert run(["budget", "--out", str(out)]) == 0
    files = {p.name for p in out.iterdir()}
    assert files == {"error_budget.csv", "efficiency_budget.csv", "budget.json"}
    text = capsys.readouterr().out
    assert "polarization" in text
    payload = json.loads((out / "budget.json").read_text())
    assert payload["error_budget"]["total"] == pytest.approx(0.0358, abs=5e-4)
    assert payload["efficiency_chain"]["total"] == pytest.approx(0.0254, abs=2e-4)


def test_ion_photon_outputs_and_contrast(tmp_path):
    out = tmp_path / "ip"
    assert run(["ion-photon", "--out", str(out), "--seed", "7"]) == 0
    names = {p.name for p in out.iterdir()}
    assert {"correlation_A.csv", "correlation_B.csv", "coherence_A.csv",
            "coherence_B.csv", "ion_photon_fits.json"} <= names
    payload = json.loads((out / "ion_photon_fits.json").read_text())
    for system in ("A", "B"):
        assert payload[system]["correlation"]["contrast"] >= 0.96
        assert payload[system]["coherence"]["contrast"] >= 0.96
    # header lines carry hash and seed
    first = (out / "correlation_A.csv").read_text().splitlines()[:3]
    assert first[0].startswith("# ionlink=")
    assert first[1].startswith("# config_hash=")
    assert first[2] == "# seed=7"


def test_ion_photon_ideal_contrast(tmp_path):
    out = tmp_path / "ideal"
    assert run(["ion-photon", "--out", str(out), "--ideal"]) == 0
    payload = json.loads((out / "ion_photon_fits.json").read_text())
    for system in ("A", "B"):
        assert payload[system]["correlation"]["contrast"] == pytest.approx(
            1.0, abs=1e-9)


def test_swap_reference_bound(tmp_path):
    out = tmp_path / "swap"
    assert run(["swap", "--out", str(out), "--trials", "400000",
                "--seed", "3"]) == 0
    payload = json.loads((out / "swap_summary.json").read_text())
    # measured profile reproduces the reference levels within sampling noise
    assert payload["odd_populations"] == pytest.approx(0.976, abs=4e-3)
    assert payload["fidelity_lower_bound"] == pytest.approx(0.937, abs=0.015)
    assert payload["alignment_wait_s"] == pytest.approx({"+1": 731.1e-6,
                                                         "-1": 222.9e-6}, abs=0.1e-6)
    assert (out / "populations.csv").exists()
    assert (out / "parity_two_pulse.csv").exists()
    assert (out / "readout_thresholds.json").exists()


def test_swap_ideal_bound(tmp_path):
    out = tmp_path / "swapideal"
    assert run(["swap", "--out", str(out), "--ideal", "--trials", "2000000",
                "--seed", "5"]) == 0
    payload = json.loads((out / "swap_summary.json").read_text())
    assert payload["fidelity_lower_bound"] > 0.999


def test_swap_summary_reports_clipped_bound_inputs(tmp_path):
    # the sampled two-pulse contrast overshoots 1 here; the bound uses 1
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("phi_a: 0.2\n")
    out = tmp_path / "clip"
    assert run(["swap", "--ideal", "--trials", "20000", "--seed", "3",
                "--config", str(cfg_path), "--out", str(out)]) == 0
    payload = json.loads((out / "swap_summary.json").read_text())
    assert payload["two_pulse_contrast"] == 1.0012697626210771
    inputs = payload["bound_inputs"]
    assert inputs == {"odd_populations": payload["odd_populations"],
                      "two_pulse_contrast": 1.0,
                      "one_pulse_contrast": payload["one_pulse_contrast"]}
    assert payload["fidelity_lower_bound"] == 0.5 * (
        inputs["odd_populations"] + inputs["two_pulse_contrast"]
        - inputs["one_pulse_contrast"])


def test_swap_runs_at_the_readout_count_bound(tmp_path):
    # a count pmf whose rows sum past 1 by more than numpy's tolerance makes
    # the calibration's multinomial draw raise at this mean
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("dark_rate: 1.0e+6\nbright_rate: 4.5e+6\n"
                        "readout_duration: 1.0e-3\n")
    cfg = load_config(cfg_path)
    assert (cfg.dark_rate + 2.0 * cfg.bright_rate) * cfg.readout_duration \
        == MAX_READOUT_COUNTS
    assert run(["swap", "--trials", "200", "--config", str(cfg_path),
                "--out", str(tmp_path / "bound")]) == 0


def test_rate_records_stream(tmp_path):
    out = tmp_path / "rr"
    assert run(["rate", "--out", str(out), "--trials", "500", "--seed", "2",
                "--records"]) == 0
    lines = (out / "herald_records_coolant.csv").read_text().splitlines()
    assert lines[3] == ("request_index,attempts_used,wall_time_ns,success,sign,"
                        "loop_index")
    assert len(lines) == 4 + 500


FORMAT_RUNS = (["budget"], ["modes"], ["ion-photon"], ["swap", "--trials", "2000"],
               ["rate", "--trials", "300", "--records"])


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Output directory of each subcommand's run at seed 3, by subcommand."""
    root = tmp_path_factory.mktemp("outputs")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in FORMAT_RUNS:
            assert run(argv + ["--seed", "3", "--out", str(root / argv[0])]) == 0
    return {argv[0]: root / argv[0] for argv in FORMAT_RUNS}


@pytest.mark.parametrize("command", [argv[0] for argv in FORMAT_RUNS])
def test_every_output_file_carries_the_run_header(outputs, command):
    files = sorted(outputs[command].iterdir())
    assert {p.suffix for p in files} == {".csv", ".json"}
    docs = {p.name: json.loads(p.read_text()) for p in files if p.suffix == ".json"}
    config_hash = next(iter(docs.values()))["config_hash"]
    for name, doc in docs.items():
        assert (doc["ionlink"], doc["config_hash"], doc["seed"]) == (
            __version__, config_hash, 3), name
    for p in files:
        if p.suffix == ".csv":
            assert p.read_text().splitlines()[:3] == [
                f"# ionlink={__version__}", f"# config_hash={config_hash}",
                "# seed=3"], p.name


def _table(outputs, command, name) -> list[str]:
    """Column row and data rows of a CSV output."""
    return (outputs[command] / name).read_text().splitlines()[3:]


def test_csv_column_rows(outputs):
    hists = _table(outputs, "swap", "readout_histograms.csv")
    assert hists[0] == "count,freq_0bright,freq_1bright,freq_2bright"
    # a scan is its control value, then each series, one row per grid point
    assert _table(outputs, "swap", "parity_two_pulse.csv")[0] == (
        "control_value,parity")
    coherence = _table(outputs, "ion-photon", "coherence_A.csv")
    assert coherence[0] == "control_value,p_up"
    assert len(coherence) == 1 + 41
    # a mode table is one row per mode: displacements, then frequency in kHz
    modes = _table(outputs, "modes", "modes_axial.csv")
    assert modes[0].startswith("mode,ion0_mass170.936")
    assert modes[0].endswith("frequency_khz")
    assert len(modes) == 1 + 3
    assert modes[1].split(",")[-1] == "352.7"


def test_rate_records_list_every_request(outputs):
    from ionlink.config import coolant_config
    from ionlink.protocol import simulate_campaign
    failed = 0
    for name, cfg in (("no_coolant", HardwareConfig()),
                      ("coolant", coolant_config())):
        rep = simulate_campaign(cfg, 300, 3)
        rows = _table(outputs, "rate", f"herald_records_{name}.csv")
        assert rows[0] == ("request_index,attempts_used,wall_time_ns,success,"
                           "sign,loop_index")
        assert len(rows) == 1 + rep.requests
        for k, row in enumerate(rows[1:]):
            ok = bool(rep.success_mask[k])
            failed += not ok
            # a failed request has no herald sign
            sign = str(rep.signs[k]) if ok else ""
            assert row == (f"{k},{rep.attempts_used[k]},{rep.wall_ns[k]},"
                           f"{int(ok)},{sign},{rep.loop_index[k]}")
    assert failed > 0


def test_rate_records_stop_at_the_limit(tmp_path, monkeypatch):
    import ionlink.cli
    monkeypatch.setattr(ionlink.cli, "MAX_RECORDS", 3)
    out = tmp_path / "rate"
    assert run(["rate", "--trials", "5", "--records", "--out", str(out)]) == 0
    mc = json.loads((out / "rate_mc.json").read_text())
    for name in ("no_coolant", "coolant"):
        assert mc[name]["requests"] == 5
        lines = (out / f"herald_records_{name}.csv").read_text().splitlines()
        assert len(lines) == 4 + 3


@pytest.mark.parametrize("trials", ["0", "-5", "10000001"])
def test_rate_bad_trials_rejected_before_output(tmp_path, capsys, trials):
    out = tmp_path / "rt"
    assert run(["rate", "--out", str(out), "--trials", trials]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "bad_trials"
    assert not out.exists()


@pytest.mark.parametrize("trials", ["99", "10000001"])
def test_swap_bad_trials_rejected_before_output(tmp_path, capsys, trials):
    out = tmp_path / "sw"
    assert run(["swap", "--out", str(out), "--trials", trials]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "bad_trials"
    assert not out.exists()


def test_rate_outputs(tmp_path):
    out = tmp_path / "rate"
    assert run(["rate", "--out", str(out), "--trials", "20000",
                "--seed", "11"]) == 0
    payload = json.loads((out / "rate_mc.json").read_text())
    assert payload["no_coolant"]["effective_attempt_rate_hz"] == pytest.approx(
        333333.3, abs=0.5)
    assert payload["coolant"]["rate_attempts_only_hz"] == pytest.approx(
        250.0, abs=10.0)
    lines = (out / "rate_analytic_coolant.csv").read_text().splitlines()
    header = lines[3]
    assert header == "cap,cdf,mean_success_prob,rate_hz,rate_no_cooling_hz"
    last = lines[-1].split(",")
    assert int(last[0]) == 20000
    assert float(last[1]) > 0.99


def test_modes_outputs(tmp_path):
    out = tmp_path / "modes"
    assert run(["modes", "--out", str(out)]) == 0
    payload = json.loads((out / "modes_summary.json").read_text())
    assert np.allclose(payload["axial_frequencies_hz"], [353e3, 604e3, 872e3],
                       atol=500.0)
    assert np.allclose(payload["radial_frequencies_hz"], [868e3, 737e3, 606e3],
                       atol=500.0)
    assert payload["equal_mass_axial_ratios"][1] == pytest.approx(3 ** 0.5,
                                                                  abs=1e-9)
    flagged = [c for c in payload["radial_coolant_coupling"] if c["below_floor"]]
    assert len(flagged) == 0  # default floor 0.1 keeps every mode
    residuals = payload["max_eigen_residual"]
    assert set(residuals) == {"axial", "radial"}
    assert all(0.0 <= r < 1e-10 for r in residuals.values())


def test_modes_single_ion(tmp_path):
    out = tmp_path / "single"
    assert run(["modes", "--out", str(out), "--single-ion",
                "--axial-ref", "367000", "--radial-ref", "890000"]) == 0
    payload = json.loads((out / "modes_summary.json").read_text())
    assert payload["axial_frequencies_hz"] == [pytest.approx(367000.0)]
    assert payload["radial_frequencies_hz"] == [pytest.approx(890000.0)]


@pytest.mark.parametrize("command,extra", [
    (["budget"], []),
    (["ion-photon"], []),
    (["modes"], []),
    (["rate"], ["--trials", "2000"]),
    (["swap"], ["--trials", "5000"]),
])
def test_byte_identical_reruns(tmp_path, command, extra):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    args = command + ["--seed", "42"] + extra
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert read_all_bytes(out1) == read_all_bytes(out2)


def test_seed_env_override(tmp_path, monkeypatch):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    monkeypatch.setenv("IONLINK_SEED", "1234")
    assert run(["swap", "--out", str(out1), "--trials", "5000"]) == 0
    monkeypatch.delenv("IONLINK_SEED")
    assert run(["swap", "--out", str(out2), "--trials", "5000",
                "--seed", "1234"]) == 0
    assert read_all_bytes(out1) == read_all_bytes(out2)


@pytest.mark.parametrize("command", ["budget", "modes", "ion-photon", "swap", "rate"])
@pytest.mark.parametrize("via", ["flag", "env"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, monkeypatch, command, via):
    out = tmp_path / "s"
    argv = [command, "--out", str(out)]
    if via == "flag":
        argv += ["--seed", "-3"]
    else:
        monkeypatch.setenv("IONLINK_SEED", "-4")
    assert run(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "bad_seed"
    assert ("-3" if via == "flag" else "-4") in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["budget", "swap"])
def test_out_naming_a_file_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("keep me\n")
    argv = [command, "--out", str(out)] + (["--trials", "5000"] if command == "swap" else [])
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "bad_out"
    assert str(out) in err["message"]
    assert out.read_text() == "keep me\n"


def test_config_errors_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    assert run(["budget", "--config", str(missing),
                "--out", str(tmp_path / "x")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config_missing"
    bad = tmp_path / "bad.yaml"
    bad.write_text("garbage_field: 3\n")
    assert run(["budget", "--config", str(bad),
                "--out", str(tmp_path / "y")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config_invalid"
    assert "garbage_field" in err["message"]
    # a quoted "no" is a string, not false: it must not select the coolant
    bad.write_text('coolant_present: "no"\n')
    assert run(["rate", "--config", str(bad), "--trials", "10",
                "--out", str(tmp_path / "z")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config_invalid"
    assert "coolant_present" in err["message"]


@pytest.mark.parametrize("command,yaml_text,field", [
    pytest.param(["budget"], 'eta_a: "0.5"\n', "eta_a", id="budget-quoted"),
    pytest.param(["swap"], 'eta_a: "0.5"\n', "eta_a", id="swap-quoted"),
    # PyYAML reads an exponent without a dot as a string
    pytest.param(["budget"], "double_excitation_prob: 1e-6\n",
                 "double_excitation_prob", id="budget-dotless-exponent"),
    pytest.param(["budget"], "delta_hz: .nan\n", "delta_hz", id="budget-nan"),
    pytest.param(["rate", "--trials", "10"], "delta_hz: .nan\n", "delta_hz",
                 id="rate-nan"),
    pytest.param(["swap"], "delta_hz: .nan\n", "delta_hz", id="swap-nan"),
    pytest.param(["rate", "--trials", "10"], "attempt_duration: 1.0e-10\n",
                 "attempt_duration", id="rate-sub-ns-attempt"),
    # caps above 10**7 would size the survival table past memory
    pytest.param(["rate", "--trials", "10"], "loop_cap_with_coolant: 1000000000\n",
                 "loop_cap_with_coolant", id="rate-over-limit-cap"),
    pytest.param(["rate", "--trials", "10"], "hardware_counter_cap: 10000001\n",
                 "hardware_counter_cap", id="rate-over-limit-counter"),
    # an int past float range must not overflow the finiteness check
    pytest.param(["budget"], "eta_a: 1" + "0" * 400 + "\n", "eta_a",
                 id="budget-huge-int"),
    # configs the measured swap profile cannot calibrate to its targets
    pytest.param(["swap"], "eta_a: 0.0\n", "measured profile",
                 id="swap-measured-all-dark"),
    pytest.param(["swap"], "t2_star_bell: 1.0e-5\n", "measured profile",
                 id="swap-measured-dephased"),
    pytest.param(["swap"], "double_excitation_prob: 0.5\n", "measured profile",
                 id="swap-measured-mixed"),
    # the readout model needs fidelities in (0, 1]
    pytest.param(["swap"], "shelving_fidelity: 0.0\n", "shelving_fidelity",
                 id="swap-zero-shelving"),
    pytest.param(["budget"], "shelving_fidelity: 0.0\n", "shelving_fidelity",
                 id="budget-zero-shelving"),
    pytest.param(["swap"], "bright_detect_fidelity: 0.0\n",
                 "bright_detect_fidelity", id="swap-zero-bright-detect"),
    pytest.param(["budget"], "bright_detect_fidelity: 0.0\n",
                 "bright_detect_fidelity", id="budget-zero-bright-detect"),
])
def test_config_type_and_range_errors_exit_2(tmp_path, capsys, command,
                                             yaml_text, field):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml_text)
    out = tmp_path / "out"
    assert run(command + ["--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config_invalid"
    assert field in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("option", [["--profile", "predicted"], ["--ideal"]])
def test_uncalibrated_profiles_take_config_as_given(tmp_path, option):
    # only the measured profile solves for targets; eta_a = 0 makes every
    # herald dark, which the predicted profile simulates and --ideal zeroes
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("eta_a: 0.0\n")
    assert run(["swap", "--trials", "2000", "--config", str(cfg),
                "--out", str(tmp_path / "out")] + option) == 0


@pytest.mark.parametrize("yaml_text,names", [
    pytest.param("eta_a: [0.5\n", ["YAML"], id="syntax-error"),
    pytest.param("foo: 1\n2: 3\n", ["'foo'", "'2'"], id="mixed-key-types"),
    pytest.param("pump_fidelity: 0.96\nexcite_prob: 0.96\n"
                 "detection_window: 5.0e-8\n",
                 ["pump_fidelity", "excite_prob", "detection_window"],
                 id="removed-fields"),
    # past Python's 4300-digit limit for int(str)
    pytest.param("eta_a: 1" + "0" * 5000 + "\n", ["YAML", "bad.yaml"],
                 id="long-integer"),
    pytest.param("eta_a: [1" + "0" * 5000 + "]\n", ["YAML", "bad.yaml"],
                 id="long-integer-in-list"),
])
def test_config_parse_errors_exit_2(tmp_path, capsys, yaml_text, names):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml_text)
    out = tmp_path / "out"
    assert run(["budget", "--config", str(cfg), "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config_invalid"
    for name in names:
        assert name in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--axial-ref", "--radial-ref"])
def test_modes_needs_both_references(tmp_path, capsys, flag):
    out = tmp_path / "m"
    assert run(["modes", "--out", str(out), flag, "900000"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "bad_reference"
    assert not out.exists()


@pytest.mark.parametrize("refs", [
    ["--single-ion", "--axial-ref", "0"],
    ["--single-ion", "--radial-ref", "inf"],
    ["--axial-ref", "-1", "--radial-ref", "890e3"],
    ["--axial-ref", "nan", "--radial-ref", "890e3"],
    ["--axial-ref", "367e3", "--radial-ref=-inf"],
    # past the range the spring constants and the Coulomb length can represent
    ["--axial-ref", "1e-300", "--radial-ref", "1e-300"],
    ["--axial-ref", "1e300", "--radial-ref", "1e300"],
    ["--single-ion", "--radial-ref", "1e300"],
])
def test_modes_references_finite_and_positive(tmp_path, capsys, refs):
    out = tmp_path / "m"
    assert run(["modes", "--out", str(out)] + refs) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "bad_reference"
    assert not out.exists()


def test_options_belong_to_their_subcommands(tmp_path, capsys):
    foreign = [("budget", "--trials", "10"), ("modes", "--trials", "10"),
               ("ion-photon", "--trials", "10"), ("budget", "--grid", "0:1:3"),
               ("modes", "--grid", "0:1:3"), ("swap", "--grid", "0:1:3"),
               ("budget", "--records"), ("modes", "--records"),
               ("ion-photon", "--records"), ("swap", "--records")]
    for command, *option in foreign:
        out = tmp_path / command
        assert run([command, "--out", str(out)] + option) == 2, (command, option)
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "usage"
        assert "unrecognized arguments" in err["message"]
        assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["budget", "--records"],
    ["rate", "--trials", "abc"],
    ["modes", "--radial-ref", "-inf"],
])
def test_usage_errors_print_json(tmp_path, capsys, argv):
    out = tmp_path / "u"
    assert run(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "usage"
    assert err["message"].startswith("ionlink")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["swap", "--help"], ["--version"]])
def test_help_and_version_exit_0_in_plain_text(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("usage: ionlink") or captured.out == __version__ + "\n"


# ionlink modules a subcommand must not load, beyond scipy and yaml for all
NOT_LOADED = {
    "budget": {"modes", "protocol"},
    "modes": {"quantum", "protocol", "fitting", "ion_photon", "swap",
              "analysis", "detection"},
    "ion-photon": {"modes", "protocol", "swap", "analysis", "detection"},
    "swap": {"modes", "protocol"},
    "rate": {"quantum", "fitting", "ion_photon", "swap", "analysis",
             "detection", "modes"},
}
LOADED_MODULES = """
import sys
from ionlink.cli import main
assert main(sys.argv[1:]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] in ("ionlink", "scipy", "yaml")))
"""


def loaded_modules(args) -> set:
    """Module names under ionlink, scipy and yaml after one CLI run in a
    fresh process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    res = subprocess.run([sys.executable, "-c", LOADED_MODULES, *args],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    return set(ast.literal_eval(res.stdout.splitlines()[-1]))


def test_subcommands_load_no_scipy(tmp_path):
    extra = {"swap": ["--trials", "1000"], "rate": ["--records", "--trials", "2000"]}
    for command, absent in NOT_LOADED.items():
        loaded = loaded_modules([command, "--out", str(tmp_path / command),
                                 *extra.get(command, [])])
        assert not {m for m in loaded if m.split(".")[0] == "scipy"}, command
        assert "yaml" not in loaded, command
        assert "ionlink.cli" in loaded
        assert not loaded & {f"ionlink.{m}" for m in absent}, command


def test_budget_config_loads_yaml(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("t2_star_bell: 0.02\n")
    out = tmp_path / "b"
    loaded = loaded_modules(["budget", "--config", str(cfg_path), "--out", str(out)])
    assert "yaml" in loaded
    payload = json.loads((out / "budget.json").read_text())
    assert payload["config_hash"] == HardwareConfig(t2_star_bell=0.02).config_hash()


def test_no_module_imports_scipy():
    # covers import paths that no subcommand run above reaches
    package = Path(__file__).resolve().parents[1] / "src" / "ionlink"
    sources = sorted(package.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert all(n.split(".")[0] != "scipy" for n in names), path.name


def test_bad_grid_rejected(tmp_path, capsys):
    for command, grid in (("ion-photon", "zap"),
                          ("ion-photon", "0:1.5708:100001"),  # too many points
                          ("ion-photon", "0:nan:11"),
                          ("ion-photon", "0:1e308:5"),  # 4 * x overflows in the fit
                          ("ion-photon", "0:-1e301:5"),
                          ("rate", "1:20000000:5")):  # caps above 10**7
        out = tmp_path / "g"
        assert run([command, "--out", str(out), "--grid", grid]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "bad_grid"
        assert not out.exists()


def test_grid_flag_controls_scan_points(tmp_path):
    out = tmp_path / "grid"
    assert run(["ion-photon", "--out", str(out), "--grid", "0:1.5708:11"]) == 0
    lines = (out / "correlation_A.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 1 + 11
    out2 = tmp_path / "gridrate"
    assert run(["rate", "--out", str(out2), "--grid", "10:1000:4",
                "--trials", "500"]) == 0
    lines = (out2 / "rate_analytic_coolant.csv").read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 1 + 4


def test_rate_grid_below_one_caps_at_one(tmp_path, capsys):
    out = tmp_path / "low"
    assert run(["rate", "--out", str(out), "--grid=-1e300:1:3", "--trials", "10"]) == 0
    assert capsys.readouterr().err == ""
    lines = (out / "rate_analytic_coolant.csv").read_text().splitlines()
    assert [l.split(",")[0] for l in lines if not l.startswith("#")] == ["cap", "1"]


def test_rate_curves_are_the_discrete_model(tmp_path):
    # every analytic row reads one survival table: the recooling-free rate
    # is heralds per attempt times the attempt rate, and a one-attempt loop
    # heralds with p(0) = decay_a + decay_c
    out = tmp_path / "rate"
    assert run(["rate", "--out", str(out), "--trials", "100"]) == 0
    cfg = HardwareConfig()
    for name in ("coolant", "no_coolant"):
        lines = (out / f"rate_analytic_{name}.csv").read_text().splitlines()
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in lines if line[0].isdigit()])
        np.testing.assert_allclose(rows[:, 4] * cfg.attempt_duration,
                                   rows[:, 2], rtol=1e-11, atol=0)
    assert rows[0, 0] == 1
    assert rows[0, 2] == pytest.approx(cfg.decay_a + cfg.decay_c, rel=1e-11)


@pytest.mark.parametrize("yaml_text", ["", "coolant_present: true\n"],
                         ids=["defaults", "coolant_present"])
def test_rate_curves_use_the_model_their_campaign_samples(tmp_path, yaml_text):
    from ionlink.config import coolant_config, load_config
    from ionlink.protocol import _success_model
    from ionlink.rate_model import success_cdf_table
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml_text)
    out = tmp_path / "rate"
    assert run(["rate", "--config", str(path), "--out", str(out),
                "--trials", "100"]) == 0
    cfg = load_config(path)
    if cfg.coolant_present:
        schedules = [("coolant", cfg)]
    else:
        schedules = [("no_coolant", cfg), ("coolant", coolant_config(cfg))]
    for name, campaign_cfg in schedules:
        lines = (out / f"rate_analytic_{name}.csv").read_text().splitlines()
        cap_1 = next(line for line in lines if line.startswith("1,")).split(",")
        p0 = success_cdf_table(_success_model(campaign_cfg), 1)[0]
        assert float(cap_1[2]) == pytest.approx(p0, rel=1e-11), name


def test_rate_with_coolant_config_runs_only_the_coolant_schedule(tmp_path):
    from ionlink.config import coolant_config
    from ionlink.protocol import effective_attempt_rate
    path = tmp_path / "cfg.yaml"
    path.write_text("coolant_present: true\n")
    out = tmp_path / "rate"
    assert run(["rate", "--config", str(path), "--out", str(out),
                "--trials", "200", "--records", "--seed", "3"]) == 0
    mc = json.loads((out / "rate_mc.json").read_text())
    assert {"coolant", "no_coolant"} & set(mc) == {"coolant"}
    assert mc["coolant"]["effective_attempt_rate_hz"] == effective_attempt_rate(
        coolant_config())
    assert not list(out.glob("*no_coolant*"))
    assert {p.name for p in out.iterdir()} == {
        "rate_mc.json", "rate_analytic_coolant.csv", "herald_records_coolant.csv"}


def test_rate_with_coolant_reads_the_configured_decays(tmp_path):
    # the coolant removes the recoil decay but keeps A + C as the success
    # probability, so a config with the coolant samples its own decay_a + decay_c
    files = {}
    for label, yaml_text in (
            ("default", "coolant_present: true\n"),
            ("decays", "coolant_present: true\ndecay_a: 0.01\ndecay_c: 1.0e-3\n")):
        path = tmp_path / f"{label}.yaml"
        path.write_text(yaml_text)
        out = tmp_path / label
        assert run(["rate", "--config", str(path), "--out", str(out),
                    "--trials", "200", "--records", "--seed", "3"]) == 0
        files[label] = {p.name: [line for line in p.read_text().splitlines()
                                 if "config_hash" not in line]
                        for p in sorted(out.iterdir())}
    assert set(files["default"]) == set(files["decays"])
    for name in files["default"]:
        assert files["default"][name] != files["decays"][name], name
    cap_1 = next(line for line in files["decays"]["rate_analytic_coolant.csv"]
                 if line.startswith("1,")).split(",")
    assert float(cap_1[2]) == pytest.approx(0.011, rel=1e-12)


def test_config_file_flows_through(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text("pol_mixing_a: 0.2\npol_mixing_b: 0.2\n")
    out = tmp_path / "out"
    assert run(["ion-photon", "--config", str(cfg_path), "--out", str(out)]) == 0
    payload = json.loads((out / "ion_photon_fits.json").read_text())
    assert payload["A"]["correlation"]["contrast"] == pytest.approx(0.8, abs=1e-6)


LIVENESS_RUNS = (["budget"], ["ion-photon"], ["swap", "--trials", "2000"],
                 ["swap", "--trials", "2000", "--profile", "predicted"],
                 ["rate", "--trials", "500"])


def _perturbed(value, name):
    if name == "hardware_counter_cap":
        return 40
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value - value // 10
    if isinstance(value, float):
        return 0.9 * value
    return {"exponential": "gaussian", "b_minus_a": "a_minus_b"}[value]


def _outputs_without_hash(tmp_path, cfg) -> dict:
    import yaml
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg.to_dict()))
    outputs = {}
    for argv in LIVENESS_RUNS:
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert run(argv + ["--seed", "3", "--config", str(path),
                               "--out", str(out)]) == 0
        files = {p.name: [line for line in p.read_text().splitlines()
                          if "config_hash" not in line]
                 for p in sorted(out.iterdir())}
        outputs[" ".join(argv)] = (stdout.getvalue(), files)
    return outputs


def test_every_config_field_changes_some_output(tmp_path):
    base = HardwareConfig()
    reference = _outputs_without_hash(tmp_path, base)
    dead = set()
    for f in dataclasses.fields(HardwareConfig):
        cfg = dataclasses.replace(
            base, **{f.name: _perturbed(getattr(base, f.name), f.name)})
        if _outputs_without_hash(tmp_path, cfg) == reference:
            dead.add(f.name)
    assert dead == set()


# --- fuzzed argv: every input keeps the error contract ---------------------------

EDGE_FLOATS = ("0", "-0.0", "5e-324", "1e-300", "0.5", "1", "367e3", "890e3", "1e12",
               "1.5e12", "1e300", "1e308", "1e309", "inf", "-inf", "nan", "-1", "abc", "")
float_texts = st.one_of(st.sampled_from(EDGE_FLOATS),
                        st.floats(-1e300, 1e300).map(repr),  # within the grid bound
                        st.floats(allow_nan=True, allow_infinity=True).map(repr),
                        st.text(max_size=8))
# grid sizes stay small or invalid, so that every run is quick
count_texts = st.one_of(st.sampled_from(["-1", "0", "2", "100001", "10" * 20, "1e3", "x"]),
                        st.integers(3, 40).map(str))
# rate runs a campaign of every valid trial count, so its counts stay small;
# swap samples its readout counts, so any valid count is quick
BAD_TRIALS = ["-1", "0", "10000001", "1e3", "x", ""]
rate_trials = st.one_of(st.sampled_from(BAD_TRIALS), st.integers(1, 2000).map(str))
swap_trials = st.one_of(st.sampled_from(BAD_TRIALS + ["99", "100", "10000000"]),
                        st.integers(1, 2000).map(str))
seed_texts = st.one_of(st.sampled_from(["0", "1", "-1", "9" * 30, "1e3", "x", ""]),
                       st.integers(0, 2**64).map(str))


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(["modes", "ion-photon", "rate", "swap", "budget"]))
    argv = [command]
    if command == "modes":
        argv += draw(st.sampled_from([[], ["--single-ion"]]))
        refs = st.one_of(st.floats(1.0, 1e12).map(repr), float_texts)
        for flag in draw(st.sets(st.sampled_from(["--axial-ref", "--radial-ref"]))):
            argv.append(f"{flag}={draw(refs)}")
    if command == "ion-photon" or command == "rate" and draw(st.booleans()):
        ends = st.one_of(st.sampled_from(["0", "1", "1e7", "1e300", "-1e301", "1e308"]),
                         st.floats(allow_nan=False, allow_infinity=False).map(repr))
        grid = draw(st.one_of(
            st.tuples(ends, ends, st.integers(3, 40).map(str)).map(":".join),
            st.tuples(float_texts, float_texts, count_texts).map(":".join),
            st.text(max_size=16)))
        argv.append(f"--grid={grid}")
    if command == "rate":
        argv.append(f"--trials={draw(rate_trials)}")
        argv += draw(st.sampled_from([[], ["--records"]]))
    if command == "swap":
        if draw(st.booleans()):
            argv.append(f"--trials={draw(swap_trials)}")
        if draw(st.booleans()):
            profile = st.sampled_from(["measured", "predicted", "tomography", ""])
            argv.append(f"--profile={draw(profile)}")
    if draw(st.booleans()):
        argv.append(f"--seed={draw(seed_texts)}")
    return argv


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=fuzzed_argv())
def test_fuzzed_argv_keeps_the_error_contract(capfd, argv):
    assert_error_contract(capfd, argv)


def assert_error_contract(capfd, argv):
    """Run ``argv``: exit 0, 1 or 2 and one JSON error line on stderr exactly
    when it fails.  capfd sees what native code prints too; a Python warning
    fails the run."""
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv + ["--out", out])
    assert code in (0, 1, 2)
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == (code != 0)
    if lines:
        err = json.loads(lines[0])
        assert set(err) == {"error", "message"}


# --- fuzzed --config: edge values of every numeric field ------------------------

NUMERIC_FIELDS = [f for f in dataclasses.fields(HardwareConfig)
                  if f.type.split(" | ")[0] in ("float", "int")]
WRONG_TYPES = ("abc", True, None, [1.0], {"x": 1})


def edge_values(field) -> st.SearchStrategy:
    """0, the smallest positive value, the default, a huge value, wrong types."""
    tiny, huge = (1, 10**300) if field.type.startswith("int") else (5e-324, 1e300)
    return st.sampled_from((0, tiny, field.default, huge, -huge) + WRONG_TYPES)


@st.composite
def fuzzed_config(draw):
    fields = draw(st.lists(st.sampled_from(NUMERIC_FIELDS), min_size=1, max_size=3,
                           unique_by=lambda f: f.name))
    data = {f.name: draw(edge_values(f)) for f in fields}
    if draw(st.booleans()):  # the envelope that squares the pair-coherence time
        data["bell_coherence_envelope"] = "gaussian"
    return data


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=fuzzed_config(),
       command=st.sampled_from([["swap", "--trials=200"], ["rate", "--trials=100"],
                                ["budget"], ["ion-photon"]]))
def test_fuzzed_config_keeps_the_error_contract(capfd, data, command):
    import yaml
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.safe_dump(data))
        assert_error_contract(capfd, command + ["--config", str(path)])
