"""The benchmark's span tracer patches fdvi functions by name.

perfbench/tracing.py is frozen with the benchmark, so renaming or deleting
a name it patches must fail here rather than crash a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import fdvi.hypotheses

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
