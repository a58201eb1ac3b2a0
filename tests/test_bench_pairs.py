"""The paired-benchmark summary: wins, ties, bounds and the claim rule."""

from __future__ import annotations

import sys

import pytest

import bench_pairs
from bench_pairs import claim_met, compare, summarise

PARENT = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]  # interquartile range 0.45


def claim(parent, change, better="lower"):
    return claim_met(parent, change, compare(parent, change, better, 0.25))


def test_ties_count_for_neither_side():
    change = [p - 1 for p in PARENT[:6]] + PARENT[6:]
    row = compare(PARENT, change, "lower", 0.25)
    assert (row["change_wins"], row["ties"], row["pairs"]) == (6, 4, 10)
    row = compare(change, PARENT, "lower", 0.25)
    assert (row["change_wins"], row["ties"]) == (0, 4)


def test_nine_wins_in_ten_meet_the_claim_and_eight_do_not():
    assert claim(PARENT, [p - 2 for p in PARENT[:9]] + [PARENT[9] + 1])
    assert not claim(PARENT, [p - 2 for p in PARENT[:8]] + [p + 1 for p in PARENT[8:]])


def test_a_median_shift_within_the_parents_interquartile_range_fails_the_claim():
    wide = [10.0 + 2 * i for i in range(10)]  # interquartile range 9
    row = compare(wide, [p - 1 for p in wide], "lower", 0.25)
    assert row["change_wins"] == 10
    assert not claim(wide, [p - 1 for p in wide])
    assert claim(wide, [p - 9.5 for p in wide])


def test_a_higher_is_better_metric_wins_upward():
    parent = [0.90, 0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99]
    row = compare(parent, [1.0] * 10, "higher", 0.25)
    assert (row["change_wins"], row["ties"], row["within_bound"]) == (10, 0, True)
    assert claim(parent, [1.0] * 10, "higher")
    assert compare([1.0] * 10, parent, "higher", 0.25)["change_wins"] == 0
    assert not claim([1.0] * 10, parent, "higher")


@pytest.mark.parametrize("better,parent,at,past", [
    ("lower", 10.0, 12.5, 12.5625),
    ("higher", 1.0, 0.75, 0.7421875),
])
def test_within_bound_holds_exactly_at_the_bound(better, parent, at, past):
    assert compare([parent] * 4, [at] * 4, better, 0.25)["within_bound"]
    assert not compare([parent] * 4, [past] * 4, better, 0.25)["within_bound"]


def test_summarise_gives_each_metric_per_workload():
    def side(value, correct=True, failed=0):
        return {"metrics": {"us_per_event": {"value": value}, "ok_ratio": {"value": 1.0}},
                "correct": correct, "failed": failed}

    runs = [{"workload": "w", "pair": i, "parent": side(10.0 + i), "change": side(9.0 + i, failed=i == 3)}
            for i in range(4)]
    runs += [{"workload": "other", "pair": i, "parent": side(1.0, correct=i == 0), "change": side(1.0)}
             for i in range(2)]
    metrics = [{"name": "us_per_event", "better": "lower", "bound": 0.25},
               {"name": "ok_ratio", "better": "higher", "bound": 0.25}]
    summary = summarise(runs, ["w"], metrics)
    assert list(summary) == ["w"]
    entry = summary["w"]
    assert (entry["us_per_event"]["change_wins"], entry["us_per_event"]["pairs"]) == (4, 4)
    assert (entry["ok_ratio"]["change_wins"], entry["ok_ratio"]["ties"]) == (0, 4)
    assert entry["correct_all_runs"] and entry["failed_total"] == {"parent": 0, "change": 1}
    assert not summarise(runs, ["other"], metrics)["other"]["correct_all_runs"]


@pytest.mark.parametrize("args", [
    ["--workloads", "error_dens"],
    ["--claim", "error_dense"],
    ["--claim", "error_dense:us_per_evnt"],
    ["--claim", "long_epochs:us_per_event", "--workloads", "error_dense"],
])
def test_bad_workloads_and_claims_are_rejected_before_any_run(args, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--parent", "HEAD", "--out", "unused.json", *args])
    monkeypatch.setattr(bench_pairs, "export", lambda rev: pytest.fail("exported before checking arguments"))
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main()
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err
