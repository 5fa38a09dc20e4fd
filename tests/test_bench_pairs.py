import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = {"throughput_per_s": {"better": "higher", "bound": 0.25},
           "latency_p50_s": {"better": "lower", "bound": 0.25}}


def _pairs(parent, change):
    return [{"parent": {"throughput_per_s": p, "latency_p50_s": 1.0 / p},
             "change": {"throughput_per_s": c, "latency_p50_s": 1.0 / c}}
            for p, c in zip(parent, change)]


def test_clear_gain_holds_and_stays_within_bound():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    out = bench_pairs.summarize(_pairs(parent, [p * 1.14 for p in parent]), METRICS)
    for name in METRICS:
        row = out[name]
        assert row["change_wins"] == 10 and row["pairs"] == 10
        assert row["gain_holds"] and row["within_bound"]
        assert row["bound"] == 0.25
    # signed by direction: both read as better, i.e. negative
    assert out["throughput_per_s"]["worse_by"] == pytest.approx(-0.14)
    assert out["latency_p50_s"]["worse_by"] == pytest.approx(1 / 1.14 - 1)


def test_eight_wins_of_ten_is_no_gain():
    parent = [100.0] * 10
    change = [110.0] * 8 + [90.0] * 2
    row = bench_pairs.summarize(_pairs(parent, change), METRICS)["throughput_per_s"]
    assert row["change_wins"] == 8
    assert not row["gain_holds"]


def test_median_gap_inside_parent_spread_is_no_gain():
    parent = [90.0, 95.0, 100.0, 105.0, 110.0] * 2
    change = [p + 1.0 for p in parent]  # wins every pair by less than the spread
    row = bench_pairs.summarize(_pairs(parent, change), METRICS)["throughput_per_s"]
    assert row["change_wins"] == 10
    assert not row["gain_holds"]


def test_ties_count_for_neither_side():
    parent = [100.0] * 10
    row = bench_pairs.summarize(_pairs(parent, parent), METRICS)["throughput_per_s"]
    assert row["change_wins"] == 0
    assert row["worse_by"] == 0.0 and row["within_bound"]
    assert not row["gain_holds"]


def test_regression_past_bound_is_flagged():
    parent = [100.0] * 10
    row = bench_pairs.summarize(_pairs(parent, [70.0] * 10), METRICS)
    assert row["throughput_per_s"]["worse_by"] == pytest.approx(0.30)
    assert not row["throughput_per_s"]["within_bound"]
    # 1/70 against 1/100 is 43% slower
    assert row["latency_p50_s"]["worse_by"] == pytest.approx(100 / 70 - 1)
    assert not row["latency_p50_s"]["within_bound"]


def test_zero_parent_median():
    metrics = {"ok_ratio": {"better": "higher", "bound": 0.01}}
    pairs = [{"parent": {"ok_ratio": 0.0}, "change": {"ok_ratio": c}}
             for c in (0.0, 1.0)]
    row = bench_pairs.summarize(pairs, metrics)["ok_ratio"]
    assert row["worse_by"] == 0.0 and row["within_bound"]
    pairs = [{"parent": {"ok_ratio": 0.0}, "change": {"ok_ratio": -1.0}}]
    row = bench_pairs.summarize(pairs, metrics)["ok_ratio"]
    assert row["worse_by"] is None and not row["within_bound"]
