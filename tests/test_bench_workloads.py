"""The benchmark's correctness gates accept what the program writes.

perfbench/workloads.py is frozen with the benchmark and reads fdvi's
outputs and classes directly (solution.csv, SolutionBundle, the verify
report's keys), so a change that breaks one of those gates must fail here
rather than fail every operation of a benchmark run.
"""

import importlib
import json
from pathlib import Path

import pytest

from fdvi.cli import main
from fdvi.config import example_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def workloads(monkeypatch):
    # imported the way perfbench/selfcheck.py imports it: by name from perfbench/
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_solve_gate_accepts_a_solve(tmp_path, workloads):
    doc = example_config()
    doc["solver"]["N"] = 64
    config = tmp_path / "problem.json"
    workloads.write_config(doc, config)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    assert workloads._check_solve(out, None) == []


def test_verify_gate_accepts_a_verify(tmp_path, workloads):
    doc = example_config()
    doc["sampling"].update(t_samples=8, y_samples=256)
    config = tmp_path / "problem.json"
    workloads.write_config(doc, config)
    report = tmp_path / "report.json"
    assert main(["verify", "--config", str(config), "--out", str(report)]) == 0
    assert workloads._check_verify(report, json.loads(config.read_text()), False) == []


def test_example_verify_passes_the_reference_gate(tmp_path, workloads):
    # the gate every seed-0 verify op of a benchmark run applies: the report's
    # constants, rho, delta, verdicts, flags and verdict against the recorded
    # reference, key sets included, within 1e-9 relative
    doc = example_config()
    config = tmp_path / "problem.json"
    workloads.write_config(doc, config)
    report = tmp_path / "report.json"
    assert main(["verify", "--config", str(config), "--out", str(report)]) == 0
    assert workloads._check_verify(report, json.loads(config.read_text()), True) == []
