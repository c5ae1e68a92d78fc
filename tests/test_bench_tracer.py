"""The benchmark's span tracer patches fdvi functions by name.

perfbench/tracing.py is frozen with the benchmark, so renaming or deleting
a name it patches must fail here rather than crash a traced benchmark run.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import fdvi
import fdvi.hypotheses
import fdvi.solver
from fdvi.cli import main
from fdvi.config import example_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_patched_name():
    tracing = _load_tracing()
    original = fdvi.hypotheses.fuzzy_metric
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert fdvi.hypotheses.fuzzy_metric is not original
    finally:
        tracer.uninstall()
    assert fdvi.hypotheses.fuzzy_metric is original


def test_selfcheck_counts_through_the_package_exports():
    # perfbench/selfcheck.py counts calls of fdvi.<name> at every module
    # attribute bound to the same function, so each export must resolve to the
    # function the solver and the verifier call
    assert fdvi.solve_vi is fdvi.solver.solve_vi
    assert fdvi.vi_residual is fdvi.solver.vi_residual
    assert fdvi.fuzzy_metric is fdvi.hypotheses.fuzzy_metric


def test_tracer_sees_the_verifier_polish(tmp_path):
    # the per-layer polish metrics must not read 0 because the spans moved
    doc = example_config()
    doc["sampling"].update(t_samples=8, y_samples=256)
    config = tmp_path / "problem.json"
    config.write_text(json.dumps(doc))
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["verify", "--config", str(config), "--out", str(tmp_path / "report.json")]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name_id"]]
    assert names.count("hypotheses.verify") == 1
    # six sampled constants and L_F
    assert names.count("hypotheses.pattern_maximize") == 7
    assert names.count("fuzzy.level_arrays") > 0


_LAZY_FFT_PROBE = """
import dataclasses, sys
import fdvi.cli
from fdvi.config import build_problem, example_config
from fdvi.hypotheses import verify
from fdvi.problem import SolverConfig
from fdvi.solver import picard_solve

problem = build_problem(example_config())
dom = dataclasses.replace(problem.sampling, t_samples=4, y_samples=64)
verify(problem.spec, dom)
before = "numpy.fft" in sys.modules
picard_solve(problem.spec, SolverConfig(N=16))
print(before, "numpy.fft" in sys.modules)
"""


def test_numpy_fft_loads_only_when_a_solve_convolves():
    # the benchmark's setup_s and verify's peak RSS must not pay for numpy.fft
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _LAZY_FFT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split() == ["False", "True"]


def test_tracer_sees_the_solver_operator(tmp_path):
    # one kernel bracket, so one convolution, per application of the operator
    doc = example_config()
    doc["solver"]["N"] = 64
    config = tmp_path / "problem.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    applications = json.loads((out / "solution_diagnostics.json").read_text())["iterations"] + 1
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name_id"]]
    assert names.count("solver.control_map") == applications
    assert names.count("solver.phi_part") == applications
    parents = [names[p] if p >= 0 else None for p in spans["parent"]]
    convolutions = [parent for name, parent in zip(names, parents) if name == "fractional.frac_integral_all"]
    assert convolutions.count("solver.phi_part") == applications
    assert convolutions.count("solver.psi_part") == 0


def test_solve_makes_no_fuzzy_metric_calls(tmp_path, monkeypatch):
    # perfbench/selfcheck.py requires solves to make zero fuzzy_metric calls,
    # counted at every fdvi module binding of that function; the pre-solve rho
    # warning must keep using the field's slope
    doc = example_config()
    doc["solver"]["N"] = 64
    config = tmp_path / "problem.json"
    config.write_text(json.dumps(doc))
    original = fdvi.fuzzy_metric
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    bindings = [(module, attr) for key, module in list(sys.modules.items())
                if key == "fdvi" or key.startswith("fdvi.")
                for attr, value in vars(module).items() if value is original]
    for module, attr in bindings:
        monkeypatch.setattr(module, attr, counted)
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert len(bindings) >= 2
    assert calls == []


def test_tracer_sees_expression_evaluation_under_the_maps(tmp_path):
    # perfbench's per-layer expr.evaluate spans stay children of the maps that
    # read the expressions: the example's Q and field scale read y, so each
    # application evaluates them under control_map and selection_map
    doc = example_config()
    doc["solver"]["N"] = 64
    config = tmp_path / "problem.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["solve", "--config", str(config), "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    applications = json.loads((out / "solution_diagnostics.json").read_text())["iterations"] + 1
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name_id"]]
    parents = [names[p] if p >= 0 else None for p in spans["parent"]]
    evaluations = [parent for name, parent in zip(names, parents) if name == "expr.evaluate"]
    assert evaluations.count("solver.control_map") >= applications
    assert evaluations.count("solver.selection_map") >= applications


def test_tracer_sees_the_two_per_node_integrals_of_the_yprime_check(tmp_path):
    # fractional.frac_integral.self_s measures only the y'(T) diagnostic: the
    # per-node integral runs twice per solve, after the sweeps, in picard_solve
    doc = example_config()
    doc["solver"]["N"] = 64
    config = tmp_path / "problem.json"
    config.write_text(json.dumps(doc))
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert main(["solve", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name_id"]]
    parents = [names[p] if p >= 0 else None for p in spans["parent"]]
    per_node = [parent for name, parent in zip(names, parents) if name == "fractional.frac_integral"]
    assert per_node == ["solver.picard_solve", "solver.picard_solve"]
