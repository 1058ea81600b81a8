"""The summary of tools/pairs.py, on synthetic benchmark results.

Claims checked here:
    - per (workload, metric) it gives each side's median and quartiles,
      the change/base ratio of the medians and the pairs the change won,
      ties counting for neither side
    - a metric named better-when-higher wins when it rises
    - a metric missing from one side of a pair leaves that pair out
    - a row whose change median is worse than the base median by more
      than the metric's bound is marked past it, for a lower-is-better
      and a higher-is-better metric alike; a gain of any size, a loss
      inside the bound and a metric with no bound are not, and the tool
      names each marked row on stderr
    - a row is marked a gain exactly when the change wins at least 9/10
      of its pairs, ties counting for neither, and its median is better
      than the base median by more than the base's interquartile range,
      for a lower-is-better and a higher-is-better metric alike
    - any run with correct false, or no result, fails the whole set
    - a run past its timeout counts as incorrect, so the set exits 1
    - a workload BENCHMARK.json does not list is refused before the base
      is extracted or any run starts
    - a base revision git cannot archive is refused with git's message,
      exit 2, before any run starts
No benchmark run is launched.
"""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("pairs", Path(__file__).resolve().parents[1] / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


def _run(correct=True, **values):
    return {"correct": correct, "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}


def _row(rows, workload, metric):
    (row,) = [r for r in rows if (r["workload"], r["metric"]) == (workload, metric)]
    return row


def test_summary_gives_quartiles_ratio_and_wins():
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 1.0, 3.0, 2.5]  # wins 4 of 5, the tie at 2.0 counts for neither
    results = {"dense": [(_run(t=b), _run(t=c)) for b, c in zip(base, change)]}
    row = _row(pairs.summarize(results), "dense", "t")
    assert row["base"] == (1.5, 3.0, 4.5)
    assert row["change"] == (0.75, 2.0, 2.75)
    assert row["ratio"] == pytest.approx(2.0 / 3.0)
    assert (row["wins"], row["pairs"]) == (4, 5)


def test_summary_respects_direction_and_missing_metrics():
    results = {
        "random": [(_run(t=1.0, rate=10.0), _run(t=2.0, rate=12.0)), (_run(t=1.0, rate=10.0), _run(t=0.5))],
        "small": [(_run(t=3.0), _run(t=3.0))],
    }
    rows = pairs.summarize(results, higher=frozenset({"rate"}))
    rate = _row(rows, "random", "rate")
    assert (rate["wins"], rate["pairs"], rate["ratio"]) == (1, 1, 1.2)
    t = _row(rows, "random", "t")
    assert (t["wins"], t["pairs"]) == (1, 2)
    assert _row(rows, "small", "t")["wins"] == 0
    assert len(rows) == 3


def test_summary_marks_a_median_past_its_bound():
    # Bound 0.25 on every metric but "free": t is better lower, rate higher.
    base = _run(t_in=1.0, t_past=1.0, t_gain=1.0, rate_in=1.0, rate_past=1.0, rate_gain=1.0, free=1.0)
    change = _run(t_in=1.24, t_past=1.26, t_gain=0.5, rate_in=0.76, rate_past=0.74, rate_gain=2.0, free=9.0)
    bounds = {name: 0.25 for name in base["metrics"] if name != "free"}
    higher = frozenset({"rate_in", "rate_past", "rate_gain"})
    rows = pairs.summarize({"random": [(base, change)] * 3}, higher, bounds)
    assert {r["metric"]: r["past_bound"] for r in rows} == {
        "t_in": False, "t_past": True, "t_gain": False,
        "rate_in": False, "rate_past": True, "rate_gain": False, "free": False,
    }
    assert not any(r["past_bound"] for r in pairs.summarize({"random": [(base, change)]}, higher))


def test_summary_marks_a_gain_by_wins_and_the_base_spread():
    # The base runs spread over 1.00-1.09, an interquartile range of 0.055.
    base = [1.0 + 0.01 * i for i in range(10)]
    change = {
        "t_gain": [0.5] * 9 + [2.0],  # 9/10 wins, median far below
        "t_tie": [0.5] * 9 + [base[9]],  # 9 wins and a tie
        "t_8_wins": [0.5] * 8 + [2.0] * 2,
        "t_8_wins_tie": [0.5] * 8 + [base[8], 2.0],
        "t_near": [x - 0.01 for x in base],  # 10/10 wins, medians 0.01 apart
        "rate_gain": [2.0] * 9 + [0.1],
        "rate_loss": [0.5] * 10,
    }
    results = {"random": [(_run(**dict.fromkeys(change, x)), _run(**{m: v[i] for m, v in change.items()}))
                          for i, x in enumerate(base)]}
    rows = pairs.summarize(results, frozenset({"rate_gain", "rate_loss"}))
    assert {r["metric"]: r["gain"] for r in rows} == {
        "t_gain": True, "t_tie": True, "t_8_wins": False, "t_8_wins_tie": False,
        "t_near": False, "rate_gain": True, "rate_loss": False,
    }
    assert pairs._format_row(_row(rows, "random", "t_gain")).endswith("wins 9/10  gain")
    assert pairs._format_row(_row(rows, "random", "t_near")).endswith("wins 10/10")


def test_a_row_past_its_bound_is_named(monkeypatch, capsys):
    # BENCHMARK.json bounds count_s.p50 at 0.25 and peak_rss_mib at 0.1.
    def run(tree, workload, seed):
        grown = tree == pairs.ROOT
        return _run(**{"count_s.p50": 1.3 if grown else 1.0, "peak_rss_mib": 10.5 if grown else 10.0})

    monkeypatch.setattr(pairs, "_extract", lambda rev, into: None)
    monkeypatch.setattr(pairs, "run_once", run)
    assert pairs.main(["--base", "HEAD", "--workloads", "small", "--pairs", "2"]) == 0
    out, err = capsys.readouterr()
    summary = {line.split()[1]: line for line in out.splitlines() if line.startswith("small ")}
    assert summary["count_s.p50"].endswith("wins 0/2  past bound")
    assert summary["peak_rss_mib"].endswith("wins 0/2")
    assert err == "small count_s.p50: change median 1.3 is worse than base median 1 by more than its 25% bound\n"


def test_any_incorrect_or_missing_run_fails_the_set():
    good = {"small": [(_run(t=1.0), _run(t=1.0))]}
    assert pairs.all_correct(good)
    assert not pairs.all_correct({"small": [(_run(t=1.0), _run(correct=False, t=1.0))]})
    assert not pairs.all_correct({"small": [({"correct": False}, _run(t=1.0))]})


def test_a_run_past_its_timeout_fails_the_set(monkeypatch, tmp_path, capsys):
    timeouts = []

    def hang(cmd, timeout=None, **kwargs):
        timeouts.append(timeout)
        raise subprocess.TimeoutExpired(cmd, timeout)

    monkeypatch.setattr(pairs.subprocess, "run", hang)
    monkeypatch.setattr(pairs, "_extract", lambda rev, into: None)
    assert pairs.run_once(tmp_path, "small", 1) == {"correct": False}
    assert pairs.main(["--base", "HEAD", "--workloads", "small", "--pairs", "1"]) == 1
    assert timeouts == [pairs.RUN_TIMEOUT_S] * 3 and pairs.RUN_TIMEOUT_S == 180
    assert "ran past 180 s" in capsys.readouterr().err


def test_an_unlisted_workload_is_refused_before_any_run(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(pairs, "_extract", no_work)
    monkeypatch.setattr(pairs, "run_once", no_work)
    with pytest.raises(SystemExit) as exc:
        pairs.main(["--base", "HEAD", "--workloads", "random,dnese", "--pairs", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown workload dnese; BENCHMARK.json lists random, planted, dense, small" in err


def test_an_unknown_base_revision_is_refused_before_any_run(monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(pairs, "run_once", no_run)
    with pytest.raises(SystemExit) as exc:
        pairs.main(["--base", "no-such-rev", "--workloads", "small", "--pairs", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot extract --base no-such-rev: fatal: " in err
