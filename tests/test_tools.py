"""The A/B pair summary of ``tools/ab_pairs.py``, on made-up runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

METRICS = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.2},
    {"name": "latency_p90_s", "better": "lower", "bound": 0.2},
]


def run(ops, p90, digest="d", failed=0):
    return {"metrics": {"ops_per_s": ops, "latency_p90_s": p90}, "digest": digest,
            "failed": failed}


def test_wins_follow_each_metrics_direction():
    pairs = [(run(100, 2.0), run(110, 1.8)), (run(100, 2.0), run(90, 1.9)),
             (run(100, 2.0), run(120, 2.1)), (run(100, 2.0), run(100, 2.0))]
    ops, p90 = ab_pairs.summarize(pairs, METRICS)
    assert (ops["wins"], p90["wins"]) == (2, 2)
    assert ops["pairs"] == p90["pairs"] == 4
    assert ops["change_median"] == 105 and p90["change_median"] == 1.95
    # Every base run is equal: no spread, so no gap ratio.
    assert ops["base_q1"] == ops["base_q3"] == 100 and ops["gap_over_iqr"] is None


def test_gap_is_measured_in_base_quartile_spreads():
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    pairs = [(run(1, b), run(1, b - 2.0)) for b in base]
    (p90,) = ab_pairs.summarize(pairs, METRICS[1:])
    q1, median, q3 = p90["base_q1"], p90["base_median"], p90["base_q3"]
    assert median == 3.0 and p90["change_median"] == 1.0
    assert p90["gap_over_iqr"] == 2.0 / (q3 - q1)
    assert p90["wins"] == 5 and p90["rel"] == 1.0 / 3.0 - 1


def test_first_worse_counts_the_pairs_whose_first_run_read_worse():
    # BASE runs first in pairs 0 and 2, CHANGE in pairs 1 and 3.  The first
    # run is slower in pairs 0, 1 and 2 and equal in pair 3, whichever side
    # it is: CHANGE wins pairs 0 and 2 on both metrics, and the first run
    # reads worse in 3 of 4.
    pairs = [(run(90, 2.0), run(100, 1.0)), (run(100, 1.0), run(90, 2.0)),
             (run(90, 2.0), run(100, 1.5)), (run(100, 1.0), run(100, 1.0))]
    ops, p90 = ab_pairs.summarize(pairs, METRICS)
    assert (ops["first_worse"], p90["first_worse"]) == (3, 3)
    assert (ops["wins"], p90["wins"]) == (2, 2)
    assert "first worse 3/4" in ab_pairs.format_rows("sweep", [p90])


def test_a_pair_needs_equal_digests_and_no_failed_ops():
    assert ab_pairs.pair_problems(run(1, 1), run(1, 1)) == []
    assert ab_pairs.pair_problems(run(1, 1, digest="a"), run(1, 1, digest="b")) == [
        "digests differ: a != b"]
    assert ab_pairs.pair_problems(run(1, 1), run(1, 1, failed=3)) == ["change failed 3 ops"]
    assert ab_pairs.pair_problems(run(1, 1, digest=None), run(1, 1, digest=None)) == [
        "digests differ: None != None"]


def test_a_gain_wins_nine_pairs_in_ten_by_more_than_the_base_spread():
    base = [1.8, 1.9, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.1, 2.2]
    change = [b - 0.4 for b in base[:9]] + [2.3]
    (p90,) = ab_pairs.summarize([(run(1, b), run(1, c)) for b, c in zip(base, change)],
                                METRICS[1:])
    assert p90["wins"] == 9 and p90["verdict"] == "gain"
    # One more lost pair is no gain, however far the medians lie apart.
    change[0] = 2.5
    (p90,) = ab_pairs.summarize([(run(1, b), run(1, c)) for b, c in zip(base, change)],
                                METRICS[1:])
    assert p90["wins"] == 8 and p90["verdict"] == "no gain"


def test_a_gain_inside_the_base_spread_is_no_gain_or_unresolved():
    # ops_per_s: every pair won, by less than the base quartile spread.
    base = [90.0, 95.0, 100.0, 100.0, 100.0, 100.0, 100.0, 100.0, 105.0, 110.0]
    pairs = [(run(b, 2.0), run(b + 1, 2.0)) for b in base]
    (ops,) = ab_pairs.summarize(pairs, METRICS[:1])
    assert ops["wins"] == 10 and ops["change_median"] - ops["base_median"] == 1
    assert ops["base_q3"] - ops["base_q1"] > 1 and ops["verdict"] == "no gain"
    # Base runs spread by more than the 0.2 bound around their median.
    wide = [60.0, 70.0, 80.0, 100.0, 100.0, 100.0, 100.0, 120.0, 130.0, 140.0]
    pairs = [(run(b, 2.0), run(b + 1, 2.0)) for b in wide]
    (ops,) = ab_pairs.summarize(pairs, METRICS[:1])
    spread = (ops["base_q3"] - ops["base_q1"]) / ops["base_median"]
    assert ops["wins"] == 10 and spread > 0.2 and ops["verdict"] == "unresolved"


def test_a_median_worse_by_more_than_the_bound_is_a_regression():
    base = [1.8, 1.9, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.1, 2.2]
    # latency_p90_s: a median 0.5 above 2.0 is worse by 25%, past the 0.2 bound.
    (p90,) = ab_pairs.summarize([(run(1, b), run(1, b + 0.5)) for b in base], METRICS[1:])
    assert p90["rel"] == 0.25 and p90["verdict"] == "regression"
    # 0.3 above is 15%, inside the bound.
    (p90,) = ab_pairs.summarize([(run(1, b), run(1, b + 0.3)) for b in base], METRICS[1:])
    assert p90["verdict"] == "no gain"
    # ops_per_s: fewer is worse; 25% fewer is a regression even when the
    # base runs spread wider than the bound.
    wide = [60.0, 70.0, 80.0, 100.0, 100.0, 100.0, 100.0, 120.0, 130.0, 140.0]
    (ops,) = ab_pairs.summarize([(run(b, 2.0), run(b - 25, 2.0)) for b in wide], METRICS[:1])
    assert ops["change_median"] == 75 and ops["verdict"] == "regression"


def test_an_unknown_workload_is_a_usage_error_before_any_run(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"run_seconds": 20, "workloads": [{"name": "analyze"}, {"name": "sweep"}]}')
    runs = []
    monkeypatch.setattr(ab_pairs, "run_once", lambda *args: runs.append(args))
    with pytest.raises(SystemExit) as exit_:
        ab_pairs.main([str(tmp_path), str(tmp_path), "--workloads", "analyze,nope"])
    assert exit_.value.code == 2 and runs == []
    assert "unknown workloads nope" in capsys.readouterr().err
