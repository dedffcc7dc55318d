"""``tools/paired.py``'s summary, on synthetic rows (no subprocess)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import paired  # noqa: E402

BENCH = {
    "end_to_end": [
        {"name": "items_per_s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
    ]
}


def _rows(workload, parent, change, correct=None):
    """Rows of pairs ``i`` with ``items_per_s`` ``parent[i]`` /
    ``change[i]`` and ``setup_s`` ten times less, both trees correct
    unless ``correct[i]`` says which tree failed."""
    rows = []
    for pair, values in enumerate(zip(parent, change)):
        for tree, value in zip(paired.TREES, values):
            ok = correct is None or correct[pair] != tree
            rows.append({
                "workload": workload, "seed": 760 + pair, "pair": pair,
                "tree": tree, "correct": ok,
                "metrics": {"items_per_s": value, "setup_s": value / 10},
            })
    return rows


def _entry(summary, workload, metric):
    (entry,) = [
        e for e in summary
        if e["workload"] == workload and e["metric"] == metric
    ]
    return entry


class TestSummary:
    def test_medians_quartiles_wins_and_ratio(self):
        rows = _rows("w", [100, 104, 96, 100, 102], [110, 112, 95, 111, 109])
        e = _entry(paired.summarize(rows, BENCH), "w", "items_per_s")
        assert e["n"] == 5
        assert (e["parent_q1"], e["parent_median"], e["parent_q3"]) == (
            100, 100, 102
        )
        assert e["change_median"] == 110
        assert e["wins"] == 4
        assert e["ratio"] == pytest.approx(1.10)
        assert e["gain"] == 10
        assert e["clears_iqr"] and e["inside_bound"]

    def test_lower_is_better_counts_the_other_way(self):
        rows = _rows("w", [100, 104, 96, 100, 102], [110, 112, 95, 111, 109])
        e = _entry(paired.summarize(rows, BENCH), "w", "setup_s")
        assert e["wins"] == 1
        assert e["gain"] == pytest.approx(-1.0)
        assert not e["clears_iqr"]
        assert e["inside_bound"]  # 10 % worse, bound 25 %

    def test_outside_the_bound(self):
        rows = _rows("w", [100, 100, 100], [70, 74, 80])
        e = _entry(paired.summarize(rows, BENCH), "w", "items_per_s")
        assert e["wins"] == 0 and not e["inside_bound"]
        e = _entry(paired.summarize(rows, BENCH), "w", "setup_s")
        assert e["wins"] == 3 and e["inside_bound"]

    def test_a_gain_inside_the_parents_spread_does_not_clear_it(self):
        rows = _rows("w", [90, 100, 110, 120], [101, 106, 111, 121])
        e = _entry(paired.summarize(rows, BENCH), "w", "items_per_s")
        assert e["wins"] == 4
        assert not e["clears_iqr"]

    def test_a_failed_round_drops_its_pair(self):
        rows = _rows(
            "w", [100, 50, 100], [110, 500, 110],
            correct=[None, "change", None],
        )
        e = _entry(paired.summarize(rows, BENCH), "w", "items_per_s")
        assert e["n"] == 2 and e["change_median"] == 110

    def test_workloads_are_summarized_apart(self):
        rows = _rows("a", [1, 2], [3, 4]) + _rows("b", [5], [5])
        summary = paired.summarize(rows, BENCH)
        assert [(e["workload"], e["metric"]) for e in summary] == [
            ("a", "items_per_s"), ("a", "setup_s"),
            ("b", "items_per_s"), ("b", "setup_s"),
        ]
        assert _entry(summary, "b", "items_per_s")["wins"] == 0
        assert "no pairs" not in paired.format_summary(summary)

    def test_seeds_parse(self):
        assert paired.parse_seeds("760-763") == [760, 761, 762, 763]
        assert paired.parse_seeds("3,5-6") == [3, 5, 6]
