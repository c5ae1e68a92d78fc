"""Span tracer for the traced benchmark run.

The tracer wraps public fdvi functions from outside the package, at the
names where they are looked up when called (``fdvi.solver.solve_vi`` is the
name ``control_map`` resolves, not ``fdvi.vi.solve_vi``).  Each call records
one span: a name id, its parent span, and start/end times.  Spans stay in
compact arrays in memory and are written out once, at the end of the run.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# (where the name is looked up, attribute, span name).  A "module:Class"
# target patches the method on the class.
PATCHES = (
    ("fdvi.cli", "picard_solve", "solver.picard_solve"),
    ("fdvi.cli", "verify", "hypotheses.verify"),
    ("fdvi.solver", "control_map", "solver.control_map"),
    ("fdvi.solver", "selection_map", "solver.selection_map"),
    ("fdvi.solver", "phi_part", "solver.phi_part"),
    ("fdvi.solver", "psi_part", "solver.psi_part"),
    ("fdvi.solver", "solve_vi", "vi.solve_vi"),
    ("fdvi.solver", "vi_residual", "vi.vi_residual"),
    ("fdvi.solver", "frac_integral_all", "fractional.frac_integral_all"),
    ("fdvi.solver", "caputo_residual", "fractional.caputo_residual"),
    ("fdvi.solver", "frac_integral", "fractional.frac_integral"),
    ("fdvi.solver", "trapezoid_integral", "fractional.trapezoid_integral"),
    ("fdvi.solver", "evaluate", "expr.evaluate"),
    # the Caputo estimator calls the convolution directly
    ("fdvi.fractional", "frac_integral_all", "fractional.frac_integral_all"),
    ("fdvi.fuzzy", "evaluate", "expr.evaluate"),
    ("fdvi.hypotheses", "evaluate", "expr.evaluate"),
    ("fdvi.hypotheses", "fuzzy_metric", "fuzzy.fuzzy_metric"),
    # also the solver's pre-solve rho warning, which imports it at call time
    ("fdvi.hypotheses", "estimate_field_lipschitz", "hypotheses.estimate_field_lipschitz"),
    ("fdvi.hypotheses", "estimate_constants", "hypotheses.estimate_constants"),
    ("fdvi.hypotheses", "check_coercivity", "hypotheses.check_coercivity"),
    ("fdvi.hypotheses", "_pattern_maximize", "hypotheses.pattern_maximize"),
    ("fdvi.fuzzy:FuzzyBoxField", "level_arrays", "fuzzy.level_arrays"),
    ("fdvi.solver:SolutionBundle", "write_csv", "solver.write_csv"),
)


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Records nested spans of the patched functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        clock = time.perf_counter
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target, attr, name in PATCHES:
            owner = _resolve(target)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict:
        """Spans as numpy arrays: name id, parent index, start, end, self time."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.shape[0])
        return {"name_id": name_id, "parent": parent, "start": start, "end": end,
                "self": dur - child}

    def save(self, path, op_bounds, op_walls) -> None:
        """Write every span, plus per-op span ranges and traced wall times."""
        spans = self.arrays()
        np.savez(path, names=np.array(self.names), op_bounds=np.asarray(op_bounds, dtype=np.int64),
                 op_walls=np.asarray(op_walls, dtype=float), **spans)


def root_of(parent: np.ndarray) -> np.ndarray:
    """Index of each span's outermost ancestor (itself for a root span)."""
    root = np.where(parent >= 0, parent, np.arange(parent.shape[0]))
    while True:
        nxt = np.where(parent[root] >= 0, parent[root], root)
        if np.array_equal(nxt, root):
            return root
        root = nxt
