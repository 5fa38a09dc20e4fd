import dataclasses
import math
import re
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ionlink import config
from ionlink.config import (
    HardwareConfig,
    coolant_config,
    ideal_config,
    load_config,
    measured_swap_config,
)
from ionlink.swap import swapped_state
from qutil import bell_phase, bell_state, fidelity_pure


def test_defaults_are_valid_and_hashable():
    cfg = HardwareConfig()
    h = cfg.config_hash()
    assert len(h) == 16
    assert HardwareConfig().config_hash() == h
    assert replace(cfg, eta_a=0.5).config_hash() != h


def test_symbol_map_names_every_field():
    doc = config.__doc__
    missing = [f.name for f in dataclasses.fields(HardwareConfig)
               if not re.search(rf"\b{f.name}\b", doc)]
    assert missing == []


def test_derived_quantities():
    cfg = HardwareConfig()
    assert cfg.delta == pytest.approx(2 * math.pi * 984.0)
    assert cfg.herald_probability() == pytest.approx(2.53e-4, abs=1e-7)
    assert cfg.swap_phase() == pytest.approx(0.48 - 5.00)
    w = cfg.dark_herald_weight()
    assert 0.0 < w < 0.01
    src = cfg.source_a()
    assert src.superposition_phase == 5.00


def test_herald_probability_values():
    # half of the coincidences herald: eta_a * eta_b / 2
    assert replace(HardwareConfig(), eta_a=1.0, eta_b=1.0).herald_probability() == 0.5
    assert replace(HardwareConfig(), eta_a=0.0, eta_b=0.7).herald_probability() == 0.0
    # measured efficiencies give the reference 2.50(16)e-4 herald probability
    assert HardwareConfig().herald_probability() == pytest.approx(2.53e-4, abs=1e-6)


def test_yaml_roundtrip(tmp_path):
    import yaml
    cfg = replace(HardwareConfig(), eta_a=0.05, loop_cap_no_coolant=10)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg.to_dict()))
    loaded = load_config(path)
    assert loaded == cfg


def test_partial_yaml_uses_defaults(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("eta_a: 0.05\n")
    loaded = load_config(path)
    assert loaded.eta_a == 0.05
    assert loaded.eta_b == HardwareConfig().eta_b


def test_unknown_field_named_in_error(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("not_a_field: 1.0\n")
    with pytest.raises(ValueError, match="not_a_field"):
        load_config(path)


def test_validation_errors():
    with pytest.raises(ValueError, match="eta_a"):
        HardwareConfig(eta_a=1.5)
    with pytest.raises(ValueError, match="decay_c"):
        HardwareConfig(decay_c=0.0)
    with pytest.raises(ValueError, match="decay_a"):
        HardwareConfig(decay_a=0.9, decay_c=0.2)
    with pytest.raises(ValueError, match="phi_a"):
        HardwareConfig(phi_a=-0.1)
    with pytest.raises(ValueError, match="loop_cap"):
        HardwareConfig(loop_cap_no_coolant=0)
    with pytest.raises(ValueError, match="temporal_overlap"):
        HardwareConfig(temporal_overlap=1.5)


@pytest.mark.parametrize("field,value", [
    ("coolant_present", "no"),
    ("coolant_present", 1),
    ("loop_cap_no_coolant", 2.5),
    ("loop_cap_with_coolant", True),
    ("attempt_duration", math.inf),
    ("cooling_duration", math.inf),
    ("cooling_duration", math.nan),
])
def test_campaign_fields_type_checked(field, value):
    with pytest.raises(ValueError, match=field):
        HardwareConfig(**{field: value})


def test_every_field_type_checked():
    for f in dataclasses.fields(HardwareConfig):
        bad = [[1.0], "1"] + ([math.nan, math.inf, -math.inf, 10**400, True, "0.5"]
                              if f.type == "float" else [])
        for value in bad:
            with pytest.raises(ValueError, match=f.name):
                HardwareConfig(**{f.name: value})


class _Digits(str):
    """An integer written out in YAML; Python's int(str) refuses one past
    4300 digits, so it is dumped from its digits instead of from an int."""


class _Dumper(yaml.SafeDumper):
    pass


_Dumper.add_representer(
    _Digits, lambda dumper, v: dumper.represent_scalar("tag:yaml.org,2002:int", v))


def _has_digits(value) -> bool:
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(map(_has_digits, value))
    return isinstance(value, _Digits)

# YAML-shaped values: nested scalars, lists and maps, with ints past float
# range and past the digit limit
_huge = st.integers(10**300, 10**400)
_long = st.integers(4301, 5001).map(lambda n: _Digits("1" + "0" * (n - 1)))
_scalars = (st.none() | st.booleans() | st.floats() | st.text(max_size=8)
            | st.integers() | _huge | _huge.map(lambda n: -n) | _long)
_values = st.recursive(_scalars, lambda inner: st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                       max_leaves=4)
# known fields and unknown keys drawn apart, so that most examples reach the
# field checks instead of stopping at an unknown key
_fields = st.sampled_from([f.name for f in dataclasses.fields(HardwareConfig)])
_mappings = st.tuples(
    st.dictionaries(_fields, _values, max_size=3),
    st.dictionaries(st.text(max_size=10) | st.integers(), _values, max_size=2),
).map(lambda parts: {**parts[0], **parts[1]})


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mappings)
def test_load_config_gives_config_or_value_error(tmp_path, data):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.dump(data, Dumper=_Dumper, sort_keys=False))
    try:
        cfg = load_config(path)
    except ValueError as exc:
        # PyYAML builds every value before any field is checked
        if _has_digits(data):
            assert str(exc).startswith(f"cannot parse {path} as YAML")
        return
    assert isinstance(cfg, HardwareConfig)


def test_float_fields_accept_ints_and_attempt_needs_1ns():
    assert HardwareConfig(eta_a=1, delta_hz=0).eta_a == 1
    assert HardwareConfig(attempt_duration=1e-9).attempt_duration == 1e-9
    with pytest.raises(ValueError, match="attempt_duration"):
        HardwareConfig(attempt_duration=0.9e-9)


def test_profiles():
    cool = coolant_config()
    assert cool.coolant_present
    assert cool.decay_a == 0.0
    assert cool.decay_c == pytest.approx(2.5e-4)
    ideal = ideal_config()
    assert ideal.pol_mixing_a == 0.0
    assert ideal.dark_count_prob == 0.0
    assert ideal.shelving_fidelity == 1.0
    measured = measured_swap_config()
    assert measured.pol_mixing_a > HardwareConfig().pol_mixing_a
    assert measured.temporal_overlap < HardwareConfig().temporal_overlap


@pytest.mark.parametrize("sign", [+1, -1])
def test_measured_profile_identities_at_analysis_delay(sign):
    # the calibration's documented targets hold exactly at analysis_delay:
    # odd populations, the odd coherence that brings the parity maximum to
    # 0.925, and the resulting overlap 0.976/2 + (0.925 - 0.976 + 1/2)
    cfg = measured_swap_config()
    t = cfg.analysis_delay
    state = swapped_state(cfg, sign, t)
    rho = state.matrix
    assert np.real(rho[1, 1] + rho[2, 2]) == pytest.approx(0.976, abs=1e-12)
    assert abs(rho[1, 2]) == pytest.approx(0.925 - 0.476, abs=1e-12)
    target = bell_state(sign, bell_phase(cfg.delta, t, cfg.swap_phase()))
    assert fidelity_pure(state, target) == pytest.approx(0.937, abs=1e-12)
