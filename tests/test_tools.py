"""The A/B pair summary of ``tools/ab_pairs.py``, on made-up runs."""

import importlib.util
from pathlib import Path

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


def test_a_pair_needs_equal_digests_and_no_failed_ops():
    assert ab_pairs.pair_problems(run(1, 1), run(1, 1)) == []
    assert ab_pairs.pair_problems(run(1, 1, digest="a"), run(1, 1, digest="b")) == [
        "digests differ: a != b"]
    assert ab_pairs.pair_problems(run(1, 1), run(1, 1, failed=3)) == ["change failed 3 ops"]
    assert ab_pairs.pair_problems(run(1, 1, digest=None), run(1, 1, digest=None)) == [
        "digests differ: None != None"]
