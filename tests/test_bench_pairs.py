"""Tests for tools/bench_pairs.py's statistics block and command line (no perfbench run)."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def pair(i, parent, change):
    return {"pair": i, "seed": 100 + i, "first": bench_pairs.SIDES[i % 2],
            "parent": {name: parent for name in bench_pairs.END_TO_END},
            "change": {name: change for name in bench_pairs.END_TO_END}}


def test_summary_has_quartiles_wins_and_overlap():
    parents, changes = [10.0, 11.0, 12.0, 13.0, 14.0], [9.0, 9.5, 12.5, 8.0, 8.5]
    pairs = [pair(i, p, c) for i, (p, c) in enumerate(zip(parents, changes))]
    block = bench_pairs.summarise(pairs, {"parent": [], "change": [104]},
                                  {"parent": 0, "change": 1})
    run = block["run_s"]
    assert run["parent"] == {"median": 12.0, "q1": 11.0, "q3": 13.0, "iqr": 2.0, "n": 5}
    assert run["change"] == {"median": 9.0, "q1": 8.5, "q3": 9.5, "iqr": 1.0, "n": 5}
    assert run["pairs_change_lower"] == "4/5"  # 12.5 against 12.0 is a loss
    assert run["median_change_vs_parent"] == pytest.approx(-0.25)
    assert run["overlap_of_iqrs"] is False  # 9.5 < 11.0
    assert block["incorrect_runs"] == {"parent": [], "change": [104]}
    assert block["failed_commands"] == {"parent": 0, "change": 1}
    assert block["pairs"] == pairs


def test_touching_iqrs_overlap_and_ties_are_no_win():
    pairs = [pair(i, p, c) for i, (p, c) in enumerate(zip([1.0, 2.0, 3.0], [3.0, 2.0, 5.0]))]
    run = bench_pairs.summarise(pairs, {"parent": [], "change": []},
                                {"parent": 0, "change": 0})["run_s"]
    assert run["pairs_change_lower"] == "0/3"
    assert run["overlap_of_iqrs"] is True  # change q1 2.5 <= parent q3 2.5


def test_run_length_and_workloads_come_from_the_benchmark(monkeypatch, tmp_path):
    calls = []

    def fake_run(argv, **kwargs):
        calls.append(argv)
        report = {"metrics": {name: {"value": 1.0} for name in bench_pairs.END_TO_END},
                  "correct": True, "failed": 0}
        return subprocess.CompletedProcess(argv, 0, stdout=json.dumps(report) + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").touch()
    workloads = [w["name"] for w in bench_pairs.BENCHMARK["workloads"]]
    for workload in workloads:
        assert bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", workload,
                                 "--seeds", "7"]) == 0
    seconds = str(bench_pairs.BENCHMARK["run_seconds"])
    assert [argv[argv.index("--seconds") + 1] for argv in calls] == [seconds] * 2 * len(workloads)
    for argv in (["--workload", "nope"], ["--workload", workloads[0], "--seconds", "3"]):
        with pytest.raises(SystemExit) as exc:
            bench_pairs.main([str(tmp_path), str(tmp_path), *argv, "--seeds", "7"])
        assert exc.value.code == 2
