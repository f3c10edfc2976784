"""Smoke test of the benchmark runner at a tiny size.

    python3 -m pytest perfbench -q

Checks that every metric BENCHMARK.json names is emitted with its unit, and
that a wrong task output is counted as a failure.
"""

import argparse
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _result(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, check=True, timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, section):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_wrong_task_output_counts_in_fail_rate(monkeypatch, capsys):
    workloads = run.import_workloads()
    build = workloads.build_pass

    def with_wrong_output(*args, **kwargs):
        tasks = build(*args, **kwargs)
        honest = tasks[0].run
        # A design whose value falls short of delta times the optimum.
        tasks[0].run = lambda: dataclasses.replace(honest(), final_value=0.5 / 16.0)
        return tasks

    monkeypatch.setattr(workloads, "build_pass", with_wrong_output)
    args = argparse.Namespace(workload="gaussian-exchange", seed=3, seconds=0.0,
                              trace=0, tiny=True)
    result = run.summarize(args, (0.1, 0.1), run.run_workload(workloads, args))
    assert result["failed"] == 1 and result["attempted"] == 2
    assert not result["correct"]
    assert "fail_rate     0.5000 (1/2 executions)" in capsys.readouterr().out
