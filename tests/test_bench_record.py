"""The recorder's per-metric summary: pairs won and the unresolved flag."""

import importlib.util
from pathlib import Path

_path = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _path)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

BOUNDS = {"setup_s": ("lower", 0.25), "jobs_per_s": ("higher", 0.25)}


def summary(name, parent, change):
    runs = {"parent": [{"metrics": {name: v}} for v in parent],
            "change": [{"metrics": {name: v}} for v in change]}
    return bench_record.summarize(runs, BOUNDS)[name]


def test_narrow_spread_is_resolved():
    s = summary("setup_s", [0.030, 0.031, 0.030, 0.032], [0.011, 0.011, 0.012, 0.011])
    assert s["change_won"] == 4 and not s["unresolved"]


def test_wide_spread_with_overlap_is_unresolved():
    s = summary("setup_s", [0.020, 0.040, 0.020, 0.040], [0.030, 0.030, 0.031, 0.030])
    assert s["change_won"] == 2 and s["unresolved"]


def test_wide_spread_is_resolved_when_every_change_run_is_better():
    # the change's IQR is far past 25% of its median, but it beats every parent run
    lower = summary("setup_s", [0.030, 0.034, 0.029, 0.031], [0.008, 0.016, 0.009, 0.015])
    assert lower["change_won"] == 4 and not lower["unresolved"]
    higher = summary("jobs_per_s", [100, 110, 105, 102], [200, 400, 210, 390])
    assert higher["change_won"] == 4 and not higher["unresolved"]


def test_wide_spread_is_unresolved_when_the_change_is_worse_on_every_run():
    s = summary("jobs_per_s", [200, 400, 210, 390], [100, 110, 105, 102])
    assert s["change_won"] == 0 and s["unresolved"]


def test_unbounded_metric_has_no_flag():
    s = summary("raw_setup_s", [0.030, 0.031], [0.011, 0.012])
    assert s["better"] == "lower" and s["change_won"] == 2 and "unresolved" not in s
