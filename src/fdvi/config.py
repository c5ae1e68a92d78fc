"""JSON problem configs: schema validation, overrides, the built-in example.

Validation errors carry JSON-pointer-style paths ("/solver/N") so a user can
find the offending value.  Unknown keys are rejected everywhere.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ExprError, FdviError
from .expr import Expression, parse
from .fuzzy import FieldComponent, FuzzyBoxField, FuzzyIntervalNumber
from .hypotheses import SAMPLED_CONSTANTS, SamplingDomain
from .problem import ProblemSpec, SelectionPolicy, SolverConfig
from .vi import AffineOperator, BoxSet


@dataclass
class LoadedProblem:
    spec: ProblemSpec
    solver: SolverConfig
    sampling: SamplingDomain
    selection: SelectionPolicy
    claimed: dict


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError("/", f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("/", f"malformed JSON: {exc}") from exc


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply "dotted.path=json-value" overrides; the result is re-validated."""
    out = json.loads(json.dumps(doc))  # deep copy
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError("/", f"override {item!r} must look like key.path=value")
        path, _, raw = item.partition("=")
        keys = path.strip().split(".")
        pointer = "/" + "/".join(keys)

        def step(container, key):
            if isinstance(container, list):
                if not key.isdigit() or int(key) >= len(container):
                    raise ConfigError(pointer, "override path does not exist")
                return container, int(key)
            if isinstance(container, dict) and key in container:
                return container, key
            raise ConfigError(pointer, "override path does not exist")

        target = out
        for key in keys[:-1]:
            container, idx = step(target, key)
            target = container[idx]
        container, idx = step(target, keys[-1])
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings allowed, e.g. expressions
        container[idx] = value
    return out


def _require(doc: dict, key: str, pointer: str):
    if key not in doc:
        raise ConfigError(f"{pointer}/{key}", "missing required key")
    return doc[key]


def _object(value, allowed, pointer: str) -> dict:
    """value, checked to be a JSON object whose keys all lie in allowed."""
    if not isinstance(value, dict):
        raise ConfigError(pointer or "/", "expected a JSON object")
    for key in value:
        if key not in allowed:
            raise ConfigError(f"{pointer}/{key}", "unknown key")
    return value


def _section(doc: dict, key: str, parsers: dict) -> dict:
    """Parse the optional object doc[key], each present key by parsers[key] at its own pointer.

    Absent keys stay absent, so the caller's dataclass supplies their
    defaults; the document's key order is kept.
    """
    pointer = f"/{key}"
    section = _object(doc.get(key, {}), parsers, pointer)
    return {k: parsers[k](v, f"{pointer}/{k}") for k, v in section.items()}


def _build(pointer: str, make, *args, **kw):
    """make(*args, **kw), with a construction failure re-raised as a ConfigError at pointer."""
    try:
        return make(*args, **kw)
    except (FdviError, ValueError) as exc:
        raise ConfigError(pointer, str(exc)) from exc


def _number(value, pointer: str) -> float:
    # the range test is False for NaN and +-inf, and for ints float() would overflow on
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ConfigError(pointer, f"expected a finite number, got {value!r}")
    return float(value)


def _integer(value, pointer: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(pointer, f"expected an integer, got {value!r}")
    return value


def _bound(value, pointer: str) -> float:
    """A number, or an infinite box endpoint: "inf", "-inf" or JSON +-Infinity."""
    if value in ("inf", "-inf"):
        return float(value)
    if isinstance(value, float) and math.isinf(value):
        return value
    return _number(value, pointer)


def _number_list(value, length: int, pointer: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != length:
        raise ConfigError(pointer, f"expected a list of {length} numbers")
    return np.array([_number(v, f"{pointer}/{i}") for i, v in enumerate(value)])


def _expr(value, n: int, pointer: str) -> Expression:
    if not isinstance(value, str):
        raise ConfigError(pointer, f"expected an expression string, got {value!r}")
    try:
        return parse(value, n)
    except ExprError as exc:
        raise ConfigError(pointer, f"bad expression: {exc}") from exc


def _expr_list(value, count: int, n: int, pointer: str) -> tuple[Expression, ...]:
    if not isinstance(value, list) or len(value) != count:
        raise ConfigError(pointer, f"expected a list of {count} expression strings")
    return tuple(_expr(v, n, f"{pointer}/{i}") for i, v in enumerate(value))


def _y_box(value, n: int, pointer: str) -> tuple[np.ndarray, np.ndarray]:
    if not isinstance(value, dict) or set(value) != {"lo", "hi"}:
        raise ConfigError(pointer, "expected an object with keys lo and hi")
    return _number_list(value["lo"], n, f"{pointer}/lo"), _number_list(value["hi"], n, f"{pointer}/hi")


_TOP_KEYS = {
    "q", "T", "n", "m", "alpha", "fuzzy", "g", "Q", "S", "K", "c1", "c2",
    "anchor_u0", "solver", "sampling", "selection", "claimed",
}
_FUZZY_KEYS = {"type", "a", "b", "c", "d", "scale", "offset"}


def _parse_fuzzy_component(doc, n: int, pointer: str) -> FieldComponent:
    doc = _object(doc, _FUZZY_KEYS, pointer)
    kind = _require(doc, "type", pointer)
    params = [_number(_require(doc, k, pointer), f"{pointer}/{k}") for k in ("a", "b", "c")]
    if kind == "triangular":
        if "d" in doc:
            raise ConfigError(f"{pointer}/d", "triangular shapes have no d parameter")
        make = FuzzyIntervalNumber.triangular
    elif kind == "trapezoidal":
        params.append(_number(_require(doc, "d", pointer), f"{pointer}/d"))
        make = FuzzyIntervalNumber.trapezoidal
    else:
        raise ConfigError(f"{pointer}/type", f"unknown shape {kind!r}")
    base = _build(pointer, make, *params)
    scale = _expr(doc.get("scale", "1"), n, f"{pointer}/scale")
    offset = _expr(doc.get("offset", "0"), n, f"{pointer}/offset")
    return FieldComponent(base=base, scale=scale, offset=offset)


def build_problem(doc: dict) -> LoadedProblem:
    """Validate a config document and construct the runtime objects.

    solver, sampling, selection and claimed are optional; an absent solver or
    sampling key takes the SolverConfig / SamplingDomain default.
    """
    doc = _object(doc, _TOP_KEYS, "")
    q = _number(_require(doc, "q", ""), "/q")
    if not 1.0 < q <= 2.0:
        raise ConfigError("/q", f"fractional order must lie in (1, 2], got {q}")
    t_horizon = _number(_require(doc, "T", ""), "/T")
    if t_horizon <= 0.0:
        raise ConfigError("/T", "horizon must be positive")
    n = _integer(_require(doc, "n", ""), "/n")
    m = _integer(_require(doc, "m", ""), "/m")
    if n < 1 or m < 1:
        raise ConfigError("/n", "dimensions n and m must be positive")
    alpha = _number(_require(doc, "alpha", ""), "/alpha")
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError("/alpha", f"membership level must lie in [0, 1], got {alpha}")

    fuzzy = _require(doc, "fuzzy", "")
    if not isinstance(fuzzy, list) or len(fuzzy) != n:
        raise ConfigError("/fuzzy", f"expected {n} fuzzy component(s)")
    field = FuzzyBoxField(
        [_parse_fuzzy_component(fc, n, f"/fuzzy/{i}") for i, fc in enumerate(fuzzy)]
    )

    g_doc = _require(doc, "g", "")
    if not isinstance(g_doc, list) or len(g_doc) != n:
        raise ConfigError("/g", f"expected {n} row(s) of {m} expression strings")
    g = tuple(_expr_list(row, m, n, f"/g/{i}") for i, row in enumerate(g_doc))
    q_exprs = _expr_list(_require(doc, "Q", ""), m, n, "/Q")
    c1 = _expr_list(_require(doc, "c1", ""), n, n, "/c1")
    c2 = _expr_list(_require(doc, "c2", ""), n, n, "/c2")

    s_doc = _object(_require(doc, "S", ""), {"M", "b"}, "/S")
    m_doc = _require(s_doc, "M", "/S")
    if not isinstance(m_doc, list) or len(m_doc) != m:
        raise ConfigError("/S/M", f"expected an {m} x {m} matrix")
    mat = np.vstack([_number_list(row, m, f"/S/M/{i}") for i, row in enumerate(m_doc)])
    b_vec = _number_list(_require(s_doc, "b", "/S"), m, "/S/b")
    s_op = AffineOperator(mat, b_vec)

    k_doc = _object(_require(doc, "K", ""), {"type", "lo", "hi"}, "/K")
    if _require(k_doc, "type", "/K") != "box":
        raise ConfigError("/K/type", "only box feasible sets are expressible in configs")
    lo_doc = _require(k_doc, "lo", "/K")
    hi_doc = _require(k_doc, "hi", "/K")
    if not isinstance(lo_doc, list) or not isinstance(hi_doc, list) or len(lo_doc) != m or len(hi_doc) != m:
        raise ConfigError("/K", f"box bounds must be lists of length {m}")
    k_lo = np.array([_bound(v, f"/K/lo/{i}") for i, v in enumerate(lo_doc)])
    k_hi = np.array([_bound(v, f"/K/hi/{i}") for i, v in enumerate(hi_doc)])
    k_set = _build("/K", BoxSet, k_lo, k_hi)

    anchor = _number_list(_require(doc, "anchor_u0", ""), m, "/anchor_u0")
    if not k_set.contains(anchor, tol=1e-12):
        raise ConfigError("/anchor_u0", "anchor must lie in K")

    def vector(value, pointer):
        return _number_list(value, n, pointer)

    solver = _build("/solver", SolverConfig, **_section(doc, "solver", {
        "N": _integer, "picard_tol": _number, "max_picard": _integer,
        "damping": _number, "vi_tol": _number, "y0": vector,
    }))
    sampling = _section(doc, "sampling", {
        "y_box": lambda value, pointer: _y_box(value, n, pointer),
        "t_samples": _integer, "y_samples": _integer, "pair_samples": _integer, "seed": _integer,
    })
    sampling.pop("pair_samples", None)  # retired: L_F samples no pairs; accepted and ignored
    y_box = sampling.pop("y_box", (np.full(n, -10.0), np.full(n, 10.0)))
    sampling = _build("/sampling", SamplingDomain, *y_box, **sampling)
    lam = _section(doc, "selection", {"lambda": vector}).get("lambda", np.zeros(n))
    selection = _build("/selection/lambda", SelectionPolicy, lam)
    claimed = _section(doc, "claimed", dict.fromkeys(SAMPLED_CONSTANTS, _number))

    spec = _build(
        "/", ProblemSpec, q=q, T=t_horizon, n=n, m=m, field=field, alpha=alpha,
        g=g, Q=q_exprs, S=s_op, K=k_set, c1=c1, c2=c2, anchor_u0=anchor,
    )
    return LoadedProblem(spec=spec, solver=solver, sampling=sampling,
                         selection=selection, claimed=claimed)


def example_config() -> dict:
    """The built-in worked instance: scalar state, two controls, S = 3I on the orthant."""
    return {
        "q": 1.6,
        "T": 0.7,
        "n": 1,
        "m": 2,
        "alpha": 1.0,
        "fuzzy": [
            {"type": "triangular", "a": -0.5, "b": 0.0, "c": 0.5,
             "scale": "cos(y1)", "offset": "0"}
        ],
        "g": [["1.2*sin(t)", "-2.5*cos(y1)"]],
        "Q": ["atan(y1) + 2*pi", "-1.4*exp(-t)"],
        "S": {"M": [[3.0, 0.0], [0.0, 3.0]], "b": [0.0, 0.0]},
        "K": {"type": "box", "lo": [0.0, 0.0], "hi": ["inf", "inf"]},
        "c1": ["1.2*sin(y1)"],
        "c2": ["0.9*cos(y1)"],
        "anchor_u0": [0.0, 0.0],
        "solver": {"N": 1000, "picard_tol": 1e-9, "max_picard": 500,
                   "damping": 1.0, "vi_tol": 1e-10},
        "sampling": {"y_box": {"lo": [-1000.0], "hi": [1000.0]},
                     "t_samples": 64, "y_samples": 4096, "seed": 20260809},
        "selection": {"lambda": [0.0]},
        # Declared bound for the Q norm as usually tabulated for this instance;
        # the sampled supremum exceeds it and the verifier flags that.
        "claimed": {"eta_Q": 7.853981633974483},
    }
