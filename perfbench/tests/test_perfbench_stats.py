"""Quartile, percentile and verdict helpers of the benchmark, and the rows
of its compare mode. Run with `python3 -m pytest perfbench/tests`."""

import math
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import results  # noqa: E402
import stats  # noqa: E402


def test_quartiles_match_statistics_quantiles():
    values = [7.0, 1.0, 3.0, 9.0, 4.0, 2.0, 8.0, 6.0, 5.0, 10.0]
    q1, med, q3 = stats.quartiles(values)
    assert (q1, med, q3) == tuple(statistics.quantiles(values, n=4))
    assert (q1, med, q3) == (2.75, 5.5, 8.25)


def test_quartiles_of_one_value():
    assert stats.quartiles([3.5]) == (3.5, 3.5, 3.5)
    with pytest.raises(ValueError):
        stats.quartiles([])


def test_spread_is_quartile_distance_over_median():
    assert stats.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)
    assert stats.spread([2.0, 2.0, 2.0]) == 0.0
    assert stats.spread([0.0, 0.0, 0.0]) == 0.0
    assert math.isinf(stats.spread([-1.0, 0.0, 1.0]))


@pytest.mark.parametrize("p", [0.0, 10.0, 25.0, 50.0, 90.0, 99.0, 100.0])
def test_percentile_matches_numpy_linear(p):
    values = [12.0, 3.0, 7.0, 1.0, 9.0, 4.0, 15.0]
    assert stats.percentile(values, p) == pytest.approx(np.percentile(values, p))


def test_percentile_fixed_points():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 25) == 1.75
    assert stats.percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


@pytest.mark.parametrize("n, expected", [(10, None), (19, None), (20, 50.0), (100, 90.0),
                                         (999, 90.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    got = stats.tail_percentile(list(range(n)))
    assert (None if got is None else got[0]) == expected


def test_verdict_better_needs_nine_tenths_of_pairs():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    change = [v - 1.0 for v in parent]
    pairs = list(zip(parent, change))
    assert stats.verdict(parent, change, pairs, "lower", 0.1) == "better"
    # two of ten pairs lost: not a gain, and within the bound
    change2 = change[:8] + [parent[8] + 0.1, parent[9] + 0.1]
    pairs2 = list(zip(parent, change2))
    assert stats.verdict(parent, change2, pairs2, "lower", 0.1) == "same"


def test_verdict_better_needs_median_gap_above_parent_iqr():
    parent = [9.0, 11.0, 9.0, 11.0, 9.0, 11.0, 9.0, 11.0, 9.0, 11.0]
    change = [v - 0.5 for v in parent]  # wins every pair, gap 0.5 < IQR 2.0
    pairs = list(zip(parent, change))
    assert stats.verdict(parent, change, pairs, "lower", None) == "unresolved"
    assert stats.verdict(parent, change, pairs, "lower", 0.25) == "same"


def test_verdict_worse_beyond_bound_and_direction():
    parent = [100.0] * 5 + [101.0] * 5
    slower = [v * 1.2 for v in parent]
    assert stats.verdict(parent, slower, list(zip(parent, slower)), "lower", 0.1) == "worse"
    assert stats.verdict(parent, slower, list(zip(parent, slower)), "higher", 0.1) == "better"
    slightly = [v * 1.05 for v in parent]
    assert stats.verdict(parent, slightly, list(zip(parent, slightly)), "lower", 0.1) == "same"


def test_verdict_unresolved_when_parent_spread_exceeds_bound():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]  # spread 1.0
    overlapping = [0.9, 1.9, 2.9, 3.9, 4.9]
    pairs = list(zip(parent, overlapping))
    assert stats.verdict(parent, overlapping, pairs, "lower", 0.2) == "unresolved"
    separated = [0.1, 0.2, 0.3, 0.4, 0.5]
    assert stats.verdict(parent, separated, list(zip(parent, separated)), "lower", 0.2) == "better"
    assert stats.verdict(parent, [9.0] * 5, list(zip(parent, [9.0] * 5)), "lower", 0.2) == "worse"


def test_verdict_without_bound_for_counts():
    same = [441.0] * 4
    assert stats.verdict(same, same, list(zip(same, same)), "lower") == "same"
    fewer = [21.0] * 4
    assert stats.verdict(same, fewer, list(zip(same, fewer)), "lower") == "better"
    assert stats.verdict(fewer, same, list(zip(fewer, same)), "lower") == "worse"
    mixed = [440.0, 442.0, 441.0, 441.0]
    assert stats.verdict(same, mixed, list(zip(same, mixed)), "lower") == "unresolved"


def test_exact_verdict_judges_each_seed():
    parent = [0.53, 0.53, 0.50, 0.46, 0.46, 0.48, 0.45, 0.46, 0.43, 0.50]
    assert stats.exact_verdict(list(zip(parent, parent)), "higher") == "same"
    lower = [g * 0.95 for g in parent]
    assert stats.exact_verdict(list(zip(parent, lower)), "higher") == "worse"
    one_loss = [g + 0.01 for g in parent[:9]] + [parent[9] - 0.01]
    assert stats.exact_verdict(list(zip(parent, one_loss)), "higher") == "worse"
    one_gain = parent[:9] + [parent[9] + 0.01]
    assert stats.exact_verdict(list(zip(parent, one_gain)), "higher") == "better"
    round_off = [g * (1 + 1e-12) for g in parent]
    assert stats.exact_verdict(list(zip(parent, round_off)), "lower") == "same"
    assert stats.exact_verdict([], "higher") == "unresolved"


def _result_doc(wall, failed, gini=None):
    gini = gini or [0.5] * len(wall)
    runs = [{"workload": "tournament", "seed": seed, "correct": f == 0, "attempted": 10,
             "failed": f, "units": {"wall_s": "s", "gini_oot_mean": "gini"},
             "metrics": {"wall_s": w, "gini_oot_mean": g, "error_rate": f / 10}}
            for seed, (w, f, g) in enumerate(zip(wall, failed, gini), start=1)]
    return {"seconds": 15, "trace": 0, "runs": runs, "summary": results.summarize(runs)}


SPEC = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
                       {"name": "gini_oot_mean", "unit": "gini", "better": "higher",
                        "bound": 0.2}],
        "per_layer": []}


def test_compare_rows_pair_by_seed_and_count_failures():
    spec = SPEC
    parent = _result_doc([10.0, 10.1, 9.9, 10.0, 10.2, 10.1, 9.9, 10.0, 10.1, 10.0], [0] * 10)
    change = _result_doc([8.0, 8.1, 7.9, 8.0, 8.2, 8.1, 7.9, 8.0, 8.1, 8.0], [0] * 9 + [1])
    rows = {r["metric"]: r for r in results.compare_rows(parent, change, spec)}
    assert rows["wall_s"]["verdict"] == "better"
    assert rows["wall_s"]["pairs"] == 10
    assert rows["wall_s"]["ratio"] == pytest.approx(8.0 / 10.0)
    assert rows["error_rate"]["verdict"] == "worse"
    assert parent["summary"]["tournament"]["error_rate"]["attempted"] == 100


def test_compare_rows_flag_a_small_quality_loss_on_every_seed():
    wall = [10.0] * 10
    parent_gini = [0.53, 0.53, 0.50, 0.46, 0.46, 0.48, 0.45, 0.46, 0.43, 0.50]
    parent = _result_doc(wall, [0] * 10, parent_gini)
    change = _result_doc(wall, [0] * 10, [g * 0.95 for g in parent_gini])
    rows = {r["metric"]: r for r in results.compare_rows(parent, change, SPEC)}
    # the medians differ by 5 %, well within the 0.2 bound, yet every seed lost
    assert rows["gini_oot_mean"]["verdict"] == "worse"
    same = {r["metric"]: r for r in results.compare_rows(parent, parent, SPEC)}
    assert same["gini_oot_mean"]["verdict"] == "same"


def test_exact_metrics_are_the_guard_and_the_counts():
    spec = {"end_to_end": SPEC["end_to_end"],
            "per_layer": [{"name": "models.nodes", "unit": "nodes", "better": "lower"},
                          {"name": "models.predict.s", "unit": "s", "better": "lower"}]}
    assert results.exact_metrics(spec) == {"gini_oot_mean", "models.nodes"}


def test_parse_seeds():
    assert results.parse_seeds("1-3,7") == [1, 2, 3, 7]
