import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

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


LAYERS = {"quantum.lift.calls": {"better": "lower"},
          "cli.main.self_s": {"better": "lower"}}


def _traced(lift_calls, main_self_s):
    return {"quantum.lift.calls": {"value": lift_calls, "unit": "calls/op"},
            "cli.main.self_s": {"value": main_self_s, "unit": "s/op"},
            "ok_ratio": {"value": 1.0, "unit": "ratio"}}


def test_layer_rows_keep_printed_values_and_zero_spans():
    rows = bench_pairs.layer_rows([_traced(10.0, 0.0)], [_traced(8.0, 0.0)], LAYERS)
    assert set(rows) == set(LAYERS)
    assert rows["quantum.lift.calls"] == {"unit": "calls/op", "better": "lower",
                                          "parent": 10.0, "change": 8.0,
                                          "ratio": pytest.approx(0.8)}
    # a span the workload does not reach reads 0 on both sides, with no ratio
    assert rows["cli.main.self_s"] == {"unit": "s/op", "better": "lower",
                                       "parent": 0.0, "change": 0.0, "ratio": None}


def test_layer_ratio_is_the_median_of_paired_run_ratios():
    # the host slows down in the first pair and speeds up in the last: each
    # pair's ratio cancels that, the ratio of the two medians does not
    parent = [_traced(10.0, 0.0), _traced(12.0, 2.0), _traced(30.0, 0.0)]
    change = [_traced(20.0, 1.0), _traced(13.0, 1.0), _traced(15.0, 4.0)]
    rows = bench_pairs.layer_rows(parent, change, LAYERS)
    lift = rows["quantum.lift.calls"]
    assert (lift["parent"], lift["change"]) == (12.0, 15.0)  # both medians kept
    assert lift["ratio"] == pytest.approx(13.0 / 12.0)  # of 2.0, 13/12 and 0.5
    assert 15.0 / 12.0 != pytest.approx(lift["ratio"])
    # pairs whose parent reads 0 give no ratio; the one left is 1/2
    main = rows["cli.main.self_s"]
    assert (main["parent"], main["change"], main["ratio"]) == (0.0, 1.0, 0.5)


def test_main_stores_the_median_of_alternating_traced_runs(tmp_path, monkeypatch):
    root = _PATH.parent.parent
    (tmp_path / "BENCHMARK.json").write_text((root / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "BUILD", tmp_path / ".bench_build")
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(bench_pairs, "checkout_revision", lambda: "1" * 40)
    monkeypatch.setattr(bench_pairs, "src_lines", lambda tree: {"total": 1})
    monkeypatch.setattr(bench_pairs, "subprocess",  # the compileall step
                        SimpleNamespace(run=lambda *args, **kwargs: None))
    bench = json.loads((root / "BENCHMARK.json").read_text())
    runs = []
    # per side, the traced runs read the first, middle and last of these in
    # turn: their median is neither the first, the last nor the mean
    traced_values = {"parent": [2.0, 4.0, 9.0], "change": [1.0, 2.0, 6.0]}

    def fake_run(tree, workload, seed, seconds, trace=0):
        side = "change" if tree == tmp_path else "parent"
        runs.append((side, seed, trace))
        names = bench["per_layer" if trace else "end_to_end"]
        if trace:
            value = traced_values[side][sum(r[::2] == (side, 1) for r in runs) - 1]
        else:
            value = {"parent": 2.0, "change": 1.0}[side]
        return {"manifest": {"git_commit": None},
                "result": {"failed": len(runs) % 2, "metrics": {
                    m["name"]: {"value": value, "unit": m["unit"]} for m in names}},
                "speed_factor": {"parent": 0.9, "change": 1.1}[side] + seed}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    assert bench_pairs.main(["--parent", "HEAD", "--pr", "99", "--workload",
                             "campaign=2", "--seed", "40"]) == 0
    # two pairs untraced, then the traced runs, each alternating sides
    assert bench_pairs.TRACED_RUNS == 3
    assert runs == [("parent", 40, 0), ("change", 40, 0), ("change", 41, 0),
                    ("parent", 41, 0), ("parent", 40, 1), ("change", 40, 1),
                    ("change", 40, 1), ("parent", 40, 1), ("parent", 40, 1),
                    ("change", 40, 1)]
    report = json.loads((tmp_path / "BENCH_99.json").read_text())
    pairs = report["workloads"]["campaign"]["pairs"]
    assert [(p["parent_speed_factor"], p["change_speed_factor"]) for p in pairs] \
        == [(40.9, 41.1), (41.9, 42.1)]
    assert report["workloads"]["campaign"]["speed_factor_median"] == \
        {"parent": pytest.approx(41.4), "change": pytest.approx(41.6)}
    trace = report["workloads"]["campaign"]["trace"]
    assert trace["seed"] == 40 and trace["runs"] == 3
    assert trace["failed"] == {"parent": [1, 0, 1], "change": [0, 1, 0]}
    assert set(trace["rows"]) == {m["name"] for m in bench["per_layer"]}
    row = trace["rows"]["quantum.lift.calls"]
    assert (row["parent"], row["change"], row["ratio"]) == (4.0, 2.0, 0.5)
    assert "--trace 1" in report["trace_command"]


def test_speed_factor_parsed_from_perfbench_output():
    out = ("latency_p50_s                                    0.000296 s  (n=27000)\n"
           "raw wall clock: latency p50 0.000301 s, p90 0.00035 s; "
           "median speed factor 0.9834\n"
           "raw setup: 0.31 s\nfail_ratio 0 (0 of 27000 ops)\n{}\n")
    assert bench_pairs.speed_factor(out) == 0.9834
    # no op succeeded: perfbench prints no raw wall clock line
    assert bench_pairs.speed_factor("fail_ratio 1 (3 of 3 ops)\n{}\n") is None
    assert bench_pairs.median_or_none([1.0, None, 3.0, 2.0]) == 2.0
    assert bench_pairs.median_or_none([None, None]) is None
