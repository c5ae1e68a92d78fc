"""JSON problem configs: schema validation, overrides, the built-in example.

Validation errors carry JSON-pointer-style paths ("/solver/N") so a user can
find the offending value.  Unknown keys are rejected everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ExprError
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
    raw: dict


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


def _no_unknown(doc: dict, allowed, pointer: str) -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{pointer}/{key}", "unknown key")


def _number(value, pointer: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(pointer, f"expected a number, got {value!r}")
    return float(value)


def _integer(value, pointer: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(pointer, f"expected an integer, got {value!r}")
    return value


def _bound(value, pointer: str) -> float:
    """A number, or the strings "inf" / "-inf" for box endpoints."""
    if value == "inf":
        return np.inf
    if value == "-inf":
        return -np.inf
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


_TOP_KEYS = {
    "q", "T", "n", "m", "alpha", "fuzzy", "g", "Q", "S", "K", "c1", "c2",
    "anchor_u0", "solver", "sampling", "selection", "claimed",
}
_FUZZY_KEYS = {"type", "a", "b", "c", "d", "scale", "offset"}
_SOLVER_KEYS = {"N", "picard_tol", "max_picard", "damping", "vi_tol", "y0"}
_SAMPLING_KEYS = {"y_box", "t_samples", "y_samples", "pair_samples", "seed"}


def _parse_fuzzy_component(doc: dict, n: int, pointer: str) -> FieldComponent:
    if not isinstance(doc, dict):
        raise ConfigError(pointer, "expected an object")
    _no_unknown(doc, _FUZZY_KEYS, pointer)
    kind = _require(doc, "type", pointer)
    a = _number(_require(doc, "a", pointer), f"{pointer}/a")
    b = _number(_require(doc, "b", pointer), f"{pointer}/b")
    c = _number(_require(doc, "c", pointer), f"{pointer}/c")
    try:
        if kind == "triangular":
            if "d" in doc:
                raise ConfigError(f"{pointer}/d", "triangular shapes have no d parameter")
            base = FuzzyIntervalNumber.triangular(a, b, c)
        elif kind == "trapezoidal":
            d = _number(_require(doc, "d", pointer), f"{pointer}/d")
            base = FuzzyIntervalNumber.trapezoidal(a, b, c, d)
        else:
            raise ConfigError(f"{pointer}/type", f"unknown shape {kind!r}")
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(pointer, str(exc)) from exc
    scale = _expr(doc.get("scale", "1"), n, f"{pointer}/scale")
    offset = _expr(doc.get("offset", "0"), n, f"{pointer}/offset")
    return FieldComponent(base=base, scale=scale, offset=offset)


def build_problem(doc: dict) -> LoadedProblem:
    """Validate a config document and construct the runtime objects."""
    if not isinstance(doc, dict):
        raise ConfigError("/", "config must be a JSON object")
    _no_unknown(doc, _TOP_KEYS, "")
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

    s_doc = _require(doc, "S", "")
    if not isinstance(s_doc, dict):
        raise ConfigError("/S", "expected an object with keys M and b")
    _no_unknown(s_doc, {"M", "b"}, "/S")
    m_doc = _require(s_doc, "M", "/S")
    if not isinstance(m_doc, list) or len(m_doc) != m:
        raise ConfigError("/S/M", f"expected an {m} x {m} matrix")
    mat = np.vstack([_number_list(row, m, f"/S/M/{i}") for i, row in enumerate(m_doc)])
    b_vec = _number_list(_require(s_doc, "b", "/S"), m, "/S/b")
    s_op = AffineOperator(mat, b_vec)

    k_doc = _require(doc, "K", "")
    if not isinstance(k_doc, dict):
        raise ConfigError("/K", "expected an object")
    _no_unknown(k_doc, {"type", "lo", "hi"}, "/K")
    if _require(k_doc, "type", "/K") != "box":
        raise ConfigError("/K/type", "only box feasible sets are expressible in configs")
    lo_doc = _require(k_doc, "lo", "/K")
    hi_doc = _require(k_doc, "hi", "/K")
    if not isinstance(lo_doc, list) or not isinstance(hi_doc, list) or len(lo_doc) != m or len(hi_doc) != m:
        raise ConfigError("/K", f"box bounds must be lists of length {m}")
    k_lo = np.array([_bound(v, f"/K/lo/{i}") for i, v in enumerate(lo_doc)])
    k_hi = np.array([_bound(v, f"/K/hi/{i}") for i, v in enumerate(hi_doc)])
    if np.any(k_lo > k_hi):
        raise ConfigError("/K", "box has lo > hi")
    k_set = BoxSet(k_lo, k_hi)

    anchor = _number_list(_require(doc, "anchor_u0", ""), m, "/anchor_u0")
    if not k_set.contains(anchor, tol=1e-12):
        raise ConfigError("/anchor_u0", "anchor must lie in K")

    solver_doc = doc.get("solver", {})
    if not isinstance(solver_doc, dict):
        raise ConfigError("/solver", "expected an object")
    _no_unknown(solver_doc, _SOLVER_KEYS, "/solver")
    try:
        solver = SolverConfig(
            N=_integer(solver_doc.get("N", 1000), "/solver/N"),
            picard_tol=_number(solver_doc.get("picard_tol", 1e-9), "/solver/picard_tol"),
            max_picard=_integer(solver_doc.get("max_picard", 500), "/solver/max_picard"),
            damping=_number(solver_doc.get("damping", 1.0), "/solver/damping"),
            vi_tol=_number(solver_doc.get("vi_tol", 1e-10), "/solver/vi_tol"),
            y0=None if "y0" not in solver_doc else _number_list(solver_doc["y0"], n, "/solver/y0"),
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError("/solver", str(exc)) from exc

    sampling_doc = doc.get("sampling", {})
    if not isinstance(sampling_doc, dict):
        raise ConfigError("/sampling", "expected an object")
    _no_unknown(sampling_doc, _SAMPLING_KEYS, "/sampling")
    ybox = sampling_doc.get("y_box", {"lo": [-10.0] * n, "hi": [10.0] * n})
    if not isinstance(ybox, dict) or set(ybox) != {"lo", "hi"}:
        raise ConfigError("/sampling/y_box", "expected an object with keys lo and hi")
    try:
        sampling = SamplingDomain(
            y_box_lo=_number_list(ybox["lo"], n, "/sampling/y_box/lo"),
            y_box_hi=_number_list(ybox["hi"], n, "/sampling/y_box/hi"),
            t_samples=_integer(sampling_doc.get("t_samples", 64), "/sampling/t_samples"),
            y_samples=_integer(sampling_doc.get("y_samples", 4096), "/sampling/y_samples"),
            pair_samples=_integer(sampling_doc.get("pair_samples", 100_000), "/sampling/pair_samples"),
            seed=_integer(sampling_doc.get("seed", 0), "/sampling/seed"),
        )
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError("/sampling", str(exc)) from exc

    selection_doc = doc.get("selection", {})
    if not isinstance(selection_doc, dict):
        raise ConfigError("/selection", "expected an object")
    _no_unknown(selection_doc, {"lambda"}, "/selection")
    lam = selection_doc.get("lambda", [0.0] * n)
    try:
        selection = SelectionPolicy(_number_list(lam, n, "/selection/lambda"))
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError("/selection/lambda", str(exc)) from exc

    claimed_doc = doc.get("claimed", {})
    if not isinstance(claimed_doc, dict):
        raise ConfigError("/claimed", "expected an object of name -> bound")
    _no_unknown(claimed_doc, SAMPLED_CONSTANTS, "/claimed")
    claimed = {k: _number(v, f"/claimed/{k}") for k, v in claimed_doc.items()}

    try:
        spec = ProblemSpec(
            q=q, T=t_horizon, n=n, m=m, field=field, alpha=alpha,
            g=g, Q=q_exprs, S=s_op, K=k_set, c1=c1, c2=c2, anchor_u0=anchor,
        )
    except Exception as exc:
        raise ConfigError("/", str(exc)) from exc
    return LoadedProblem(spec=spec, solver=solver, sampling=sampling,
                         selection=selection, claimed=claimed, raw=doc)


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
                     "t_samples": 64, "y_samples": 4096,
                     "pair_samples": 100000, "seed": 20260809},
        "selection": {"lambda": [0.0]},
        # Declared bound for the Q norm as usually tabulated for this instance;
        # the sampled supremum exceeds it and the verifier flags that.
        "claimed": {"eta_Q": 7.853981633974483},
    }
