"""Failure accounting and correctness checks of the benchmark runner.
Run with `python3 -m pytest perfbench/tests`."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402


def test_missing_model_predict_counts_as_one_failure(tmp_path):
    argv = ["predict", "--model", "missing.json", "--data", "missing.csv", "--out", "."]
    runner = bench.PassRunner([argv])
    times = runner.run(tmp_path)
    assert len(times) == 1
    assert (runner.attempted, runner.failed) == (1, 1)
    assert "exit 2" in runner.failures[0]


def test_usage_error_counts_as_failure(tmp_path):
    runner = bench.PassRunner([["train", "--out", "."]])  # --family is required
    runner.run(tmp_path)
    assert (runner.attempted, runner.failed) == (1, 1)


class FakeCli:
    """Writes one artifact per command; `drift` names the command whose
    output changes from pass two on."""

    def __init__(self, drift=None):
        self.drift = drift
        self.calls = 0

    def __call__(self, argv):
        self.calls += 1
        name = argv[0]
        value = self.calls if name == self.drift else 0
        Path("%s.json" % name).write_text(json.dumps({"v": value}))
        Path("timing_%s.json" % name).write_text(json.dumps({"t": self.calls}))
        return 0


def test_artifacts_that_differ_from_pass_one_fail_only_that_command(tmp_path):
    runner = bench.PassRunner([["stable"], ["drifting"]], call=FakeCli(drift="drifting"))
    for i in range(3):
        pass_dir = tmp_path / ("pass%d" % i)
        pass_dir.mkdir()
        runner.run(pass_dir)
    assert runner.attempted == 6
    assert runner.failed == 2  # passes two and three of "drifting"
    assert all(f.startswith("drifting") for f in runner.failures)


def test_volatile_files_do_not_count(tmp_path):
    runner = bench.PassRunner([["a"], ["b"]], call=FakeCli())
    for i in range(2):
        pass_dir = tmp_path / ("pass%d" % i)
        pass_dir.mkdir()
        runner.run(pass_dir)
    assert (runner.attempted, runner.failed) == (4, 0)


def test_report_digest_ignores_time_columns(tmp_path):
    header = "model,gini_test,learn_time_s,predict_time_s,rejected\n"
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    (a / "report.csv").write_text(header + "gbm,0.5,1.234,0.010,no\n")
    (b / "report.csv").write_text(header + "gbm,0.5,9.876,0.020,no\n")
    assert bench._digest(a / "report.csv") == bench._digest(b / "report.csv")
    (b / "report.csv").write_text(header + "gbm,0.6,9.876,0.020,no\n")
    assert bench._digest(a / "report.csv") != bench._digest(b / "report.csv")


@pytest.mark.parametrize("rows, expected, problem", [
    (["0.1", "0.9"], 2, None),
    (["0.1"], 2, "1 scores for 2 input rows"),
    (["0.1", "nan"], 2, "score 'nan' outside [0, 1]"),
    (["0.1", "1.5"], 2, "score '1.5' outside [0, 1]"),
])
def test_check_scores(tmp_path, rows, expected, problem):
    path = tmp_path / "scores.csv"
    path.write_text("row,score\n" + "".join("%d,%s\n" % (i, s) for i, s in enumerate(rows)))
    assert bench.check_scores(path, expected) == problem


def test_exits_non_zero_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "SRC", tmp_path / "src")
    code = bench.main(["--workload", "tournament", "--seed", "1", "--seconds", "1",
                       "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
