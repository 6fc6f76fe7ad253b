"""scripts/pairs.py's summary on canned result lines (no benchmark run)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

_SPECS = [{"name": "trials_per_s", "unit": "trials/s", "better": "higher", "bound": 0.25},
          {"name": "trial_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
          {"name": "pass_share", "unit": "ratio", "better": "higher", "bound": 0.03}]


def _line(rate, p50, share=1.0):
    """One last line of ``perfbench/run.py``, parsed."""
    return {"correct": True, "attempted": 64, "failed": 0, "metrics": {
        "trials_per_s": {"value": rate, "unit": "trials/s"},
        "trial_p50_ms": {"value": p50, "unit": "ms"},
        "pass_share": {"value": share, "unit": "ratio"}}}


def test_wins_follow_each_metrics_direction():
    results = [(_line(2000, 0.41), _line(2150, 0.37)),
               (_line(2030, 0.40), _line(2010, 0.36)),
               (_line(1990, 0.42), _line(2100, 0.43))]
    assert pairs.summary(results, _SPECS) == [
        "trials_per_s     won 2 of 3  median 2000 -> 2100 trials/s",
        "trial_p50_ms     won 2 of 3  median 0.41 -> 0.37 ms",
        # a tie wins nothing
        "pass_share       won 0 of 3  median 1 -> 1 ratio"]


def test_a_median_worse_than_its_bound_is_marked():
    # trial_p50_ms worsens by 30 % against a bound of 25 %; trials_per_s
    # worsens by 20 %, within its bound, and pass_share improves
    results = [(_line(2000, 0.40, 0.98), _line(1600, 0.52, 1.0)),
               (_line(2000, 0.40, 0.98), _line(1600, 0.52, 1.0))]
    assert pairs.summary(results, _SPECS) == [
        "trials_per_s     won 0 of 2  median 2000 -> 1600 trials/s",
        "trial_p50_ms     won 0 of 2  median 0.4 -> 0.52 ms  over bound",
        "pass_share       won 2 of 2  median 0.98 -> 1 ratio"]
    # a lower pass_share by more than its 3 % bound is over it too
    assert pairs.summary([(_line(2000, 0.40), _line(2000, 0.40, 0.96))], _SPECS)[2] == \
        "pass_share       won 0 of 1  median 1 -> 0.96 ratio  over bound"


def test_a_metric_missing_from_a_side_is_left_out():
    parent, change = _line(2000, 0.41), _line(2100, 0.40)
    del change["metrics"]["trial_p50_ms"]
    assert [line.split()[0] for line in pairs.summary([(parent, change)], _SPECS)] == [
        "trials_per_s", "pass_share"]
    assert pairs.summary([(_line(1, 1), {"correct": False, "metrics": {}})], _SPECS) == []


def test_pair_lines_give_the_relative_difference():
    lines = pairs.pair_lines(_line(2000, 0.40), _line(2100, 0.38), _SPECS)
    assert [line.split() for line in lines] == [
        ["trials_per_s", "2000", "->", "2100", "+5.00%", "trials/s"],
        ["trial_p50_ms", "0.4", "->", "0.38", "-5.00%", "ms"],
        ["pass_share", "1", "->", "1", "+0.00%", "ratio"]]
