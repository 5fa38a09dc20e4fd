"""Every subcommand's outputs stay byte-identical to ``tests/golden/``.

``tools/golden.py`` defines the runs and regenerates the golden files.  A
mismatch names the first differing JSON key or CSV cell of each file.
"""

import importlib.util
import json
from itertools import zip_longest
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "golden.py"
_SPEC = importlib.util.spec_from_file_location("golden", _PATH)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

# JSON keys whose floats come out of LAPACK (eigh, svd, inv) and are written
# in full repr: another LAPACK build may move their last digits, so when
# they differ they are compared at '%.12g', the precision of a CSV cell.
LAPACK_KEYS = {
    "modes_summary.json": {
        "axial_freq_ref_hz", "radial_freq_ref_hz", "axial_frequencies_hz",
        "radial_frequencies_hz", "equal_mass_axial_ratios",
        "radial_coolant_coupling"},
    "ion_photon_fits.json": {
        "correlation", "coherence", "fidelity_upper_bound", "fidelity_lower_bound"},
    "swap_summary.json": {
        "odd_populations", "two_pulse_contrast", "one_pulse_contrast",
        "fidelity_lower_bound", "bound_inputs", "spam_clipped_mass"},
}


# JSON keys whose floats are round-off of a solve, near 1e-16, where '%.12g'
# absorbs no LAPACK difference: any value below the key's bound stands for
# any other, the bound that tests/test_cli.py::test_modes_outputs enforces.
BOUNDED_KEYS = {"modes_summary.json": {"max_eigen_residual": 1e-10}}


def _bounded(doc, bounds, bound=None):
    """``doc`` with each float under a key of ``bounds`` that lies below
    that key's bound as the text ``'< bound'``."""
    if isinstance(doc, dict):
        return {k: _bounded(v, bounds, bounds.get(k, bound)) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_bounded(v, bounds, bound) for v in doc]
    return f"< {bound:g}" if bound and isinstance(doc, float) and abs(doc) < bound else doc


def _rounded(doc, keys, inside=False):
    """``doc`` with each float under a key of ``keys`` as '%.12g'."""
    if isinstance(doc, dict):
        return {k: _rounded(v, keys, inside or k in keys) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_rounded(v, keys, inside) for v in doc]
    return "%.12g" % doc if inside and isinstance(doc, float) else doc


def _json_difference(want, got, path="") -> str | None:
    if isinstance(want, dict) and isinstance(got, dict):
        children = [(k, want.get(k), got.get(k)) for k in sorted(want.keys() | got.keys())]
    elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        children = [(k, w, g) for k, (w, g) in enumerate(zip(want, got))]
    else:
        return None if want == got else f"{path or '/'}: {want!r} != {got!r}"
    for key, w, g in children:
        if (found := _json_difference(w, g, f"{path}/{key}")) is not None:
            return found
    return None


def _text_difference(want: str, got: str) -> str:
    """The first differing line, and for a CSV row its first differing cell."""
    lines = list(zip_longest(want.splitlines(), got.splitlines(), fillvalue=""))
    columns = next((w.split(",") for w, _ in lines if not w.startswith("#")), [])
    for number, (w, g) in enumerate(lines, start=1):
        if w != g:
            for column, a, b in zip_longest(columns, w.split(","), g.split(",")):
                if a != b:
                    return f"line {number}, column {column}: {a!r} != {b!r}"
    return "same lines, different line endings"


def difference(name: str, want: str, got: str) -> str | None:
    """None when ``got`` stands for the golden ``want``, else where they differ."""
    if want == got:
        return None
    if not name.endswith(".json"):
        return f"{name}: {_text_difference(want, got)}"
    a, b = json.loads(want), json.loads(got)
    if a != b:
        bounds = BOUNDED_KEYS.get(name, {})
        a, b = _bounded(a, bounds), _bounded(b, bounds)
        keys = LAPACK_KEYS.get(name, set())
        if a == b or (keys and _rounded(a, keys) == _rounded(b, keys)):
            return None
    return f"{name}: {_json_difference(a, b) or 'same values, different bytes'}"


@pytest.mark.parametrize("seed", golden.SEEDS)
@pytest.mark.parametrize("label", list(golden.RUNS))
def test_cli_outputs_match_golden(tmp_path, label, seed):
    got = golden.run_outputs(golden.RUNS[label], seed, tmp_path)
    stored = golden.run_dir(label, seed)
    want = {p.name: p.read_text() for p in sorted(stored.iterdir())}
    assert sorted(got) == sorted(want)
    found = [d for name in want if (d := difference(name, want[name], got[name]))]
    assert not found, "\n".join(found)


def test_difference_names_the_first_differing_key_and_cell():
    csv = "# seed=5\ncap,cdf\n1,0.5\n2,0.75\n"
    assert difference("r.csv", csv, csv.replace("0.75", "0.76")) == (
        "r.csv: line 4, column cdf: '0.75' != '0.76'")
    doc = json.dumps({"a": [1.0, 2.0], "b": 3.0})
    assert difference("x.json", doc, json.dumps({"a": [1.0, 2.5], "b": 3.0})) == (
        "x.json: /a/1: 2.0 != 2.5")
    # last-digit LAPACK noise passes only under a LAPACK key
    want = json.dumps({"odd_populations": 0.1, "trials": 0.1})
    noisy = json.dumps({"odd_populations": 0.10000000000000002, "trials": 0.1})
    assert difference("swap_summary.json", want, noisy) is None
    noisy = json.dumps({"odd_populations": 0.1, "trials": 0.10000000000000002})
    assert difference("swap_summary.json", want, noisy) == (
        "swap_summary.json: /trials: 0.1 != 0.10000000000000002")
    # an eigensolver residual passes below its bound, whatever its digits
    want = json.dumps({"max_eigen_residual": {"axial": 9.9e-16}, "n": 3.0})
    noisy = json.dumps({"max_eigen_residual": {"axial": 3.1e-16}, "n": 3.0})
    assert difference("modes_summary.json", want, noisy) is None
    high = json.dumps({"max_eigen_residual": {"axial": 2e-10}, "n": 3.0})
    assert difference("modes_summary.json", want, high) == (
        "modes_summary.json: /max_eigen_residual/axial: '< 1e-10' != 2e-10")
    moved = json.dumps({"max_eigen_residual": {"axial": 3.1e-16}, "n": 3.5})
    assert difference("modes_summary.json", want, moved) == (
        "modes_summary.json: /n: 3.0 != 3.5")
