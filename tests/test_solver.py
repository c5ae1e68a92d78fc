import dataclasses
import math
import re

import numpy as np
import pytest

import fdvi.solver
from fdvi.config import build_problem, example_config
from fdvi.errors import DimensionMismatch, DomainError, EvalDomainError, MaxPicardExceeded, NonfiniteValue
from fdvi.expr import parse
from fdvi.fractional import GridFunction, UniformGrid, trapezoid_integral
from fdvi.fuzzy import FieldComponent, FuzzyBoxField, FuzzyIntervalNumber, hausdorff
from fdvi.problem import ProblemSpec, SelectionPolicy, SolverConfig
from fdvi.solver import (
    _apply_operator,
    _columns,
    _g_times,
    _y_free_column,
    control_map,
    phi_part,
    BandRun,
    band_envelope,
    picard_solve,
    psi_part,
    read_solution_csv,
    selection_map,
    solve_band,
)
from fdvi.special import gamma
from fdvi.vi import AffineOperator, BoxSet

TRI = FuzzyIntervalNumber.triangular(-0.5, 0.0, 0.5)


def scalar_spec(c1="0", c2="0", g="0", scale="0", alpha=1.0, q=1.6, t_horizon=0.7):
    """A 1-state, 1-control instance with S = I on the orthant."""
    field = FuzzyBoxField([FieldComponent(base=TRI, scale=parse(scale, 1), offset=parse("0", 1))])
    return ProblemSpec(
        q=q, T=t_horizon, n=1, m=1, field=field, alpha=alpha,
        g=((parse(g, 1),),), Q=(parse("1", 1),),
        S=AffineOperator(np.eye(1), np.zeros(1)), K=BoxSet.orthant(1),
        c1=(parse(c1, 1),), c2=(parse(c2, 1),), anchor_u0=np.zeros(1),
    )


# --- phi_part ---------------------------------------------------------------


def test_phi_zero_selection(example_spec):
    grid = UniformGrid(0.7, 64)
    out = phi_part(example_spec, GridFunction.zeros(grid, 1))
    assert np.all(out.values == 0.0)


def test_phi_constant_vanishes_at_horizon(example_spec):
    grid = UniformGrid(0.7, 128)
    out = phi_part(example_spec, GridFunction(grid, np.full(grid.N + 1, 2.3)))
    assert out.values[-1, 0] == pytest.approx(0.0, abs=1e-15)
    assert out.values[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_phi_constant_midpoint_closed_form(example_spec):
    # t^q/Gamma(q+1) - (t/T) T^q/Gamma(q+1) at t = T/2
    grid = UniformGrid(0.7, 1000)
    out = phi_part(example_spec, GridFunction(grid, np.ones(grid.N + 1)))
    expected = 0.35**1.6 / gamma(2.6) - 0.5 * 0.7**1.6 / gamma(2.6)
    assert out.values[500, 0] == pytest.approx(expected, abs=1e-12)


# --- psi_part ---------------------------------------------------------------


def test_psi_constant_boundary_data_affine():
    # zero kernel terms force y(t) = a T + (b - a) t
    spec = scalar_spec(c1="0.3", c2="0.8")
    grid = UniformGrid(0.7, 100)
    y = GridFunction.zeros(grid, 1)
    h = GridFunction.zeros(grid, 1)
    out = psi_part(spec, y, h)
    expected = 0.3 * 0.7 + 0.5 * grid.nodes
    assert np.allclose(out.values[:, 0], expected, atol=1e-14)


def test_psi_all_zero():
    spec = scalar_spec()
    grid = UniformGrid(0.7, 50)
    out = psi_part(spec, GridFunction.zeros(grid, 1), GridFunction.zeros(grid, 1))
    assert np.all(out.values == 0.0)


def test_psi_self_convergence(example_spec):
    # fixed inputs, Richardson: N vs 4N should agree at O(h^2)
    vals = {}
    for n_nodes in (250, 1000):
        grid = UniformGrid(0.7, n_nodes)
        y = GridFunction(grid, 0.3 * np.sin(grid.nodes))
        h = GridFunction(grid, np.column_stack([np.zeros(grid.N + 1), np.exp(-grid.nodes) / 3.0]))
        vals[n_nodes] = psi_part(example_spec, y, h)
    coarse = vals[250].values
    fine = vals[1000].values[::4]
    assert np.max(np.abs(coarse - fine)) <= 5e-7


# --- the whole operator ------------------------------------------------------


def _two_dim_spec():
    doc = example_config()
    doc.update({
        "q": 1.7, "T": 0.9, "n": 2, "alpha": 0.4,
        "fuzzy": [
            {"type": "trapezoidal", "a": -0.6, "b": -0.1, "c": 0.2, "d": 0.7,
             "scale": "0.5 + 0.3*y2", "offset": "0.2*t*y1"},
            {"type": "triangular", "a": -0.5, "b": 0.1, "c": 0.5,
             "scale": "sin(y1)", "offset": "0.1*y2"},
        ],
        "g": [["1 + 0.5*sin(t)", "0.3*cos(y2)"], ["-0.7*y1/(1 + y1^2)", "exp(-t)"]],
        "Q": ["atan(y1) - y2/(1 + abs(y2))", "2 + cos(t*y1)"],
        "c1": ["0.5*sin(y1)", "0.2*cos(y2)"],
        "c2": ["0.3*y1/(1 + abs(y1))", "0.4*sin(y2)"],
        "sampling": {"y_box": {"lo": [-3.0, -2.0], "hi": [3.0, 2.5]}},
        "selection": {"lambda": [0.3, -0.6]},
        "claimed": {},
    })
    problem = build_problem(doc)
    return problem.spec, problem.selection


@pytest.mark.parametrize("case", ["example", "two_dim"])
def test_operator_is_one_bracket_of_the_whole_rhs(case, example_problem, rng):
    # B is linear: B[f + g u] + l equals the two-bracket form phi_part(f) + psi_part(y, u)
    spec, policy = (example_problem.spec, example_problem.selection) if case == "example" else _two_dim_spec()
    cfg = SolverConfig(N=300)
    grid = UniformGrid(spec.T, cfg.N)
    for _ in range(3):
        y = GridFunction(grid, rng.uniform(-2.0, 2.0, (grid.N + 1, spec.n)))
        ty, u, f, rhs, ic1, ic2, w = _apply_operator(spec, cfg, policy, y)
        two_brackets = phi_part(spec, f).values + psi_part(spec, y, u).values
        assert np.max(np.abs(ty - two_brackets)) <= 1e-14 * (1.0 + np.max(np.abs(ty)))
        u_map, w_map = control_map(spec, y, cfg.vi_tol)
        assert np.array_equal(u.values, u_map.values)
        assert np.array_equal(w, w_map) and np.array_equal(w, _columns(spec.Q, y))
        assert np.array_equal(f.values, selection_map(spec, y, policy).values)
        assert np.array_equal(rhs.values, f.values + _g_times(spec, y, u.values))
        # the bracket vanishes at both ends, where l is int c1 and int c2
        assert np.array_equal(ty[0], ic1) and np.array_equal(ty[-1], ic2)


@pytest.mark.parametrize("name", ["picard_tol", "vi_tol"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_solver_config_rejects_nonfinite_tolerances(name, value):
    with pytest.raises(DomainError, match=name):
        SolverConfig(**{name: value})


@pytest.mark.parametrize("changes", [{"damping": 0.0}, {"damping": 1.5}, {"max_picard": 0}])
def test_solver_config_rejects_damping_and_sweep_caps_out_of_range(changes):
    with pytest.raises(DomainError, match=next(iter(changes))):
        SolverConfig(**changes)


@pytest.mark.parametrize("field, changes, error", [
    ("q", {"q": 1.0}, DomainError),
    ("T", {"T": 0.0}, DomainError),
    ("field", {"n": 2}, DimensionMismatch),
    ("g", {"g": ()}, DimensionMismatch),
    ("Q", {"Q": ()}, DimensionMismatch),
    ("c1", {"c2": ()}, DimensionMismatch),
    ("S", {"K": BoxSet.orthant(3)}, DimensionMismatch),
    ("anchor", {"anchor_u0": [0.0]}, DimensionMismatch),
])
def test_problem_spec_checks_each_field(example_spec, field, changes, error):
    with pytest.raises(error, match=field):
        dataclasses.replace(example_spec, **changes)


def test_band_envelope_needs_a_converged_run():
    with pytest.raises(ValueError, match="no converged runs"):
        band_envelope([BandRun(1.0, np.zeros(1), None, "MaxPicardExceeded: no fixed point")])


# --- control_map ------------------------------------------------------------


def test_control_map_closed_form(example_spec):
    grid = UniformGrid(0.7, 200)
    y = GridFunction(grid, 0.1 * np.cos(grid.nodes))
    u, _ = control_map(example_spec, y)
    assert np.max(np.abs(u.values[:, 0])) == 0.0
    expected = 1.4 / 3.0 * np.exp(-grid.nodes)
    assert np.max(np.abs(u.values[:, 1] - expected)) <= 1e-10


def test_control_map_zero_data():
    spec = scalar_spec()
    # Q = 1 >= 0 on the orthant with S = I: u = 0
    grid = UniformGrid(0.7, 32)
    u, _ = control_map(spec, GridFunction.zeros(grid, 1))
    assert np.all(u.values == 0.0)


def test_control_map_factors_through_q():
    # Q depends only on t here, so u is identical for different y
    field = FuzzyBoxField([FieldComponent(base=TRI, scale=parse("0", 1), offset=parse("0", 1))])
    spec = ProblemSpec(
        q=1.6, T=0.7, n=1, m=1, field=field, alpha=1.0,
        g=((parse("0", 1),),), Q=(parse("-exp(-t)", 1),),
        S=AffineOperator(2.0 * np.eye(1), np.zeros(1)), K=BoxSet.orthant(1),
        c1=(parse("0", 1),), c2=(parse("0", 1),), anchor_u0=np.zeros(1),
    )
    grid = UniformGrid(0.7, 64)
    u1, _ = control_map(spec, GridFunction(grid, np.sin(grid.nodes)))
    u2, _ = control_map(spec, GridFunction(grid, np.cos(grid.nodes)))
    assert np.array_equal(u1.values, u2.values)


# --- selection_map and the nearest selection ----------------------------------


def test_selection_midpoint_is_offset():
    field = FuzzyBoxField([FieldComponent(base=TRI, scale=parse("cos(y1)", 1), offset=parse("t", 1))])
    spec = ProblemSpec(
        q=1.6, T=0.7, n=1, m=1, field=field, alpha=0.3,
        g=((parse("0", 1),),), Q=(parse("1", 1),),
        S=AffineOperator(np.eye(1), np.zeros(1)), K=BoxSet.orthant(1),
        c1=(parse("0", 1),), c2=(parse("0", 1),), anchor_u0=np.zeros(1),
    )
    grid = UniformGrid(0.7, 40)
    f = selection_map(spec, GridFunction.zeros(grid, 1), SelectionPolicy.constant(0.0, 1))
    assert np.allclose(f.values[:, 0], grid.nodes, atol=1e-15)


def test_selection_policy_of_the_wrong_dimension_is_rejected(example_spec):
    with pytest.raises(DimensionMismatch, match="policy has dimension 2, problem n = 1"):
        picard_solve(example_spec, SolverConfig(N=16), SelectionPolicy(np.zeros(2)))


def test_selection_core_level_is_peak(example_spec):
    grid = UniformGrid(0.7, 40)
    y = GridFunction(grid, np.sin(grid.nodes))
    for lam in (-1.0, 0.0, 1.0):
        f = selection_map(example_spec, y, SelectionPolicy.constant(lam, 1))
        assert np.max(np.abs(f.values)) == 0.0  # alpha = 1 level is {0}


def test_selection_support_upper_corner(example_problem):
    from fdvi.config import build_problem, example_config

    doc = example_config()
    doc["alpha"] = 0.0
    spec = build_problem(doc).spec
    grid = UniformGrid(0.7, 16)
    f = selection_map(spec, GridFunction.zeros(grid, 1), SelectionPolicy.constant(1.0, 1))
    assert np.allclose(f.values[:, 0], 0.5)


def test_selection_membership(example_problem):
    from fdvi.config import build_problem, example_config

    doc = example_config()
    doc["alpha"] = 0.35
    spec = build_problem(doc).spec
    grid = UniformGrid(0.7, 64)
    rng = np.random.default_rng(3)
    y = GridFunction(grid, rng.uniform(-2, 2, size=grid.N + 1))
    f = selection_map(spec, y, SelectionPolicy.constant(0.7, 1))
    lo, hi = spec.field.level_arrays(grid.nodes, y.values, spec.alpha)
    assert np.all(f.values >= lo - 1e-15) and np.all(f.values <= hi + 1e-15)


def nearest_selection(spec, f1, y2):
    """Clamp a selection onto the level boxes along y2, node by node."""
    return np.clip(f1.values, *spec.field.level_arrays(y2.grid.nodes, y2.values, spec.alpha))


def test_selection_policy_rejects_lambda_outside_cube():
    for lam in ([1.5], [0.0, -1.0001], [np.inf]):
        with pytest.raises(DomainError):
            SelectionPolicy(np.array(lam))


def test_selection_map_midpoint_and_corners():
    # level boxes at alpha = 0: [offset - scale/2, offset + scale/2] per coordinate
    field = FuzzyBoxField([
        FieldComponent(base=TRI, scale=parse("2", 2), offset=parse("t", 2)),
        FieldComponent(base=FuzzyIntervalNumber.trapezoidal(0.0, 1.0, 2.0, 4.0),
                       scale=parse("1", 2), offset=parse("y1", 2)),
    ])
    spec = ProblemSpec(
        q=1.6, T=0.7, n=2, m=1, field=field, alpha=0.0,
        g=((parse("0", 2),), (parse("0", 2),)), Q=(parse("1", 2),),
        S=AffineOperator(np.eye(1), np.zeros(1)), K=BoxSet.orthant(1),
        c1=(parse("0", 2), parse("0", 2)), c2=(parse("0", 2), parse("0", 2)), anchor_u0=np.zeros(1),
    )
    grid = UniformGrid(0.7, 16)
    y = GridFunction(grid, np.column_stack([np.sin(grid.nodes), np.zeros(grid.N + 1)]))
    ts, y1 = grid.nodes, y.values[:, 0]
    lo = np.column_stack([ts - 1.0, y1])
    hi = np.column_stack([ts + 1.0, y1 + 4.0])
    for lam, expected in (((0.0, 0.0), 0.5 * (lo + hi)), ((1.0, 1.0), hi), ((-1.0, -1.0), lo),
                          ((-1.0, 1.0), np.column_stack([lo[:, 0], hi[:, 1]]))):
        f = selection_map(spec, y, SelectionPolicy(np.array(lam)))
        assert np.allclose(f.values, expected, atol=1e-15)


def test_nearest_selection_identity_and_bound(example_problem):
    from fdvi.config import build_problem, example_config

    doc = example_config()
    doc["alpha"] = 0.2
    spec = build_problem(doc).spec
    grid = UniformGrid(0.7, 128)
    rng = np.random.default_rng(7)
    y1 = GridFunction(grid, rng.uniform(-2, 2, size=grid.N + 1))
    y2 = GridFunction(grid, rng.uniform(-2, 2, size=grid.N + 1))
    f1 = selection_map(spec, y1, SelectionPolicy.constant(-0.4, 1))
    assert np.array_equal(nearest_selection(spec, f1, y1), f1.values)
    f2 = nearest_selection(spec, f1, y2)
    # per-node distance bounded by the level-box Hausdorff distance,
    # here 0.5 (1 - alpha) | |cos y1| - |cos y2| |
    bound = 0.5 * (1.0 - spec.alpha) * np.abs(
        np.abs(np.cos(y1.values[:, 0])) - np.abs(np.cos(y2.values[:, 0]))
    )
    assert np.all(np.abs(f1.values[:, 0] - f2[:, 0]) <= bound + 1e-14)


def test_nearest_selection_random_property(example_problem):
    from fdvi.config import build_problem, example_config

    doc = example_config()
    doc["alpha"] = 0.5
    spec = build_problem(doc).spec
    grid = UniformGrid(0.7, 30)
    rng = np.random.default_rng(11)
    for _ in range(300):
        y1 = GridFunction(grid, rng.uniform(-3, 3, size=grid.N + 1))
        y2 = GridFunction(grid, rng.uniform(-3, 3, size=grid.N + 1))
        f1 = selection_map(spec, y1, SelectionPolicy(rng.uniform(-1, 1, size=1)))
        f2 = nearest_selection(spec, f1, y2)
        lo1, hi1 = spec.field.level_arrays(grid.nodes, y1.values, spec.alpha)
        lo2, hi2 = spec.field.level_arrays(grid.nodes, y2.values, spec.alpha)
        for i in range(0, grid.N + 1, 7):
            h = hausdorff(BoxSet(lo1[i], hi1[i]), BoxSet(lo2[i], hi2[i]))
            assert abs(f1.values[i, 0] - f2[i, 0]) <= h + 1e-13


# --- picard_solve -----------------------------------------------------------


def test_picard_constant_case_two_sweeps():
    spec = scalar_spec(c1="0.3", c2="0.8")
    bundle = picard_solve(spec, SolverConfig(N=64, picard_tol=1e-12))
    assert bundle.diagnostics["iterations"] <= 2
    grid = bundle.y.grid
    assert np.allclose(bundle.y.values[:, 0], 0.21 + 0.5 * grid.nodes, atol=1e-13)


def test_picard_diagnostics_certificates(solved):
    d = solved(500).diagnostics
    assert d["converged"]
    assert d["final_residual"] <= 1e-9
    assert d["fixed_point_recheck"] <= 2e-9
    assert d["max_vi_residual"] <= 1e-10
    assert d["boundary_residual"] <= 1e-12
    assert d["boundary_selfgap"] <= 1e-8


def test_picard_boundary_is_c1_trapezoid(solved):
    bundle = solved(500)
    grid = bundle.y.grid
    c1_vals = 1.2 * np.sin(bundle.y.values[:, 0])
    ic1 = trapezoid_integral(GridFunction(grid, c1_vals))
    assert abs(bundle.y.values[0, 0] - ic1[0]) <= 1e-8  # self-consistency at O(tol)


def test_picard_divergence_raises_with_history():
    # c1 feedback with slope 6: the sweep map's dominant eigenvalue is ~ 6 T / 2 > 1
    spec = scalar_spec(c1="6*y1", c2="0")
    with pytest.raises(MaxPicardExceeded) as err:
        picard_solve(spec, SolverConfig(N=32, max_picard=40, y0=np.array([1.0])))
    assert len(err.value.residual_history) == 40
    assert err.value.residual_history[-1] > err.value.residual_history[5]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_picard_nonfinite_blowup_detected():
    # Quadratic feedback c1 = y1^2 with c2 = g = 0 and a zero field.  The first
    # sweep from the constant y0 gives y(t) = a (1 - t/T) with a = T y0^2, and
    # each later sweep maps the boundary value a to T a^2 / 3.  That map escapes
    # to infinity only for a > 3/T, i.e. y0 > sqrt(3)/T ~ 2.47; below it the
    # sweep converges to the exact fixed point y = 0.  y0 = 4 gives a = 11.2,
    # which overflows after a few sweeps.  Turning RuntimeWarning into an error
    # checks that the overflow arrives as a typed error, not a numpy warning.
    spec = scalar_spec(c1="y1*y1", c2="0")
    with pytest.raises(NonfiniteValue) as err:
        picard_solve(spec, SolverConfig(N=16, max_picard=60, y0=np.array([4.0])))
    assert err.value.iteration > 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_picard_overflow_outside_expressions_detected():
    # y1^2 = 1.69e308 is still finite; the c1 trapezoid sum is the first overflow
    spec = scalar_spec(c1="y1*y1", c2="0")
    with pytest.raises(NonfiniteValue) as err:
        picard_solve(spec, SolverConfig(N=16, max_picard=5, y0=np.array([1.3e154])))
    assert isinstance(err.value.__cause__, FloatingPointError)


def _counted_applications(monkeypatch, fail_at=None):
    """Count the calls of _apply_operator; call number fail_at raises FloatingPointError."""
    calls = []

    def apply(*args):
        calls.append(None)
        if len(calls) == fail_at:
            raise FloatingPointError("overflow encountered in multiply")
        return _apply_operator(*args)

    monkeypatch.setattr(fdvi.solver, "_apply_operator", apply)
    return calls


def test_overflow_in_the_final_application_is_a_nonfinite_value(example_spec, monkeypatch):
    # the application after the converged sweep runs under the sweeps' overflow guard
    cfg = SolverConfig(N=64)
    iterations = picard_solve(example_spec, cfg).diagnostics["iterations"]
    calls = _counted_applications(monkeypatch, fail_at=iterations + 1)
    with pytest.raises(NonfiniteValue) as err:
        picard_solve(example_spec, cfg)
    assert err.value.iteration == iterations + 1 == len(calls)
    assert isinstance(err.value.__cause__, FloatingPointError)


def test_sweep_cap_applies_the_operator_once_per_sweep(example_spec, monkeypatch):
    iterations = picard_solve(example_spec, SolverConfig(N=64)).diagnostics["iterations"]
    calls = _counted_applications(monkeypatch)
    with pytest.raises(MaxPicardExceeded) as err:
        picard_solve(example_spec, SolverConfig(N=64, max_picard=iterations - 1))
    assert len(err.value.residual_history) == iterations - 1 == len(calls)


def test_picard_domain_error_propagates():
    # a domain violation is not a blow-up: log(0) at the zero start surfaces as is
    spec = scalar_spec(c1="log(y1)", c2="0")
    with pytest.raises(EvalDomainError, match="log"):
        picard_solve(spec, SolverConfig(N=16, max_picard=5))


def test_solution_csv_round_trip(tmp_path, solved):
    bundle = solved(500)
    path = tmp_path / "solution.csv"
    bundle.write_csv(path)
    y, u, f = read_solution_csv(path)
    assert np.array_equal(y.values, bundle.y.values)
    assert np.array_equal(u.values, bundle.u.values)
    assert np.array_equal(f.values, bundle.f.values)


def test_solution_csv_with_an_edited_time_is_rejected(tmp_path, solved):
    path = tmp_path / "solution.csv"
    solved(500).write_csv(path)
    lines = path.read_bytes().split(b"\r\n")
    t, rest = lines[101].split(b",", 1)  # node 100
    edited = math.nextafter(float(t), 1.0)
    lines[101] = b"%r,%s" % (edited, rest)
    path.write_bytes(b"\r\n".join(lines))
    with pytest.raises(DomainError, match=rf"line 102: t = {edited:.17g} is not node 100 of the grid, {t.decode()}"):
        read_solution_csv(path)


@pytest.mark.parametrize("text, line, message", [
    (b"t,y1\r\n", 2, "the file ends before its first data row"),
    (b"t,y1\r\n0,1\r\n0.5\r\n1,2\r\n", 3, "1 fields, the header 2"),
    (b"t,y1\r\n0,1\r\n0.5,1,7\r\n1,2\r\n", 3, "3 fields, the header 2"),
])
def test_malformed_solution_csv_names_the_file_and_line(tmp_path, text, line, message):
    path = tmp_path / "solution.csv"
    path.write_bytes(text)
    for read in (read_solution_csv, GridFunction.read_csv):
        with pytest.raises(DomainError, match=rf"^{re.escape(str(path))}, line {line}: {message}$"):
            read(path)


# --- solve_band ---------------------------------------------------------------


def test_band_empty_alphas(example_spec):
    assert solve_band(example_spec, SolverConfig(N=64), [], [0.0]) == []


def test_band_singleton_matches_solve(example_spec):
    runs = solve_band(example_spec, SolverConfig(N=200), [1.0], [0.0])
    assert len(runs) == 1 and runs[0].ok
    direct = picard_solve(example_spec, SolverConfig(N=200), SelectionPolicy.constant(0.0, 1))
    assert np.array_equal(runs[0].bundle.y.values, direct.y.values)


def test_band_runs_tagged_and_partial_failures(example_spec):
    runs = solve_band(example_spec, SolverConfig(N=200, max_picard=1), [0.0, 1.0], [0.0])
    assert [r.alpha for r in runs] == [0.0, 1.0]
    assert all(not r.ok and "MaxPicard" in r.error for r in runs)


# --- the per-grid column cache and the input checks ----------------------------


@pytest.mark.parametrize("case", ["example", "two_dim"])
def test_column_cache_gives_the_uncached_operator(case, example_problem, rng):
    # three iterates on each of two equal grids, as two solves see them: the
    # warm cache, kept across iterates and grids, gives the cold cache's operator
    spec, policy = (example_problem.spec, example_problem.selection) if case == "example" else _two_dim_spec()
    cfg = SolverConfig(N=300)
    grids = [UniformGrid(spec.T, cfg.N) for _ in range(2)]
    ys = [rng.uniform(-2.0, 2.0, (cfg.N + 1, spec.n)) for _ in range(3)]
    cold = []
    for grid in grids:
        for y in ys:
            _y_free_column.cache_clear()
            cold.append(_apply_operator(spec, cfg, policy, GridFunction(grid, y)))
    misses = _y_free_column.cache_info().misses
    assert misses > 0
    warm = [_apply_operator(spec, cfg, policy, GridFunction(grid, y)) for grid in grids for y in ys]
    assert _y_free_column.cache_info().misses == misses  # every y-free column was read back
    for cold_out, warm_out in zip(cold, warm):
        for a, b in zip(cold_out, warm_out):
            assert np.array_equal(getattr(a, "values", a), getattr(b, "values", b))


@pytest.mark.parametrize(("q_exprs", "site"), [
    (["log(y1)+1", "log(t)"], "log(y1)"),  # the y-reading entry comes first and raises first
    (["1", "log(t)"], "log(t)"),  # a y-free entry still raises in sweep 1
])
def test_y_free_domain_errors_surface_in_order(q_exprs, site):
    doc = example_config()
    doc["Q"] = q_exprs
    with pytest.raises(EvalDomainError, match=rf"log of a nonpositive value in subexpression {re.escape(site)}$"):
        picard_solve(build_problem(doc).spec, SolverConfig(N=64))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_y_free_overflow_is_a_blowup_at_sweep_one():
    spec = scalar_spec(c1="exp(2000*t)", c2="0")
    with pytest.raises(NonfiniteValue) as err:
        picard_solve(spec, SolverConfig(N=16, max_picard=5))
    assert err.value.iteration == 1
    assert "exp(2000.0 * t)" in str(err.value)


def test_nan_selection_is_a_domain_error(example_spec):
    with pytest.raises(DomainError, match=r"\[-1, 1\]"):
        SelectionPolicy(np.array([math.nan]))
    # rejected before any sweep, so it cannot read as a NonfiniteValue blow-up
    with pytest.raises(DomainError):
        solve_band(example_spec, SolverConfig(N=64), [1.0], [math.nan])


def test_malformed_y0_is_rejected_up_front(example_spec):
    for y0 in ([math.nan], [0.0, math.inf]):
        with pytest.raises(DomainError, match="y0"):
            SolverConfig(y0=np.array(y0))
    with pytest.raises(DimensionMismatch, match="y0"):
        picard_solve(example_spec, SolverConfig(N=64, y0=np.array([0.1, 0.2])))


def test_cached_columns_are_read_only(example_spec):
    grid = UniformGrid(example_spec.T, 64)
    for col in (_y_free_column(example_spec.Q[1], grid, example_spec.n),
                _y_free_column(example_spec.field.components[0].offset, grid, example_spec.n),
                grid.t_over_T):
        assert col.shape == (grid.N + 1,) and not col.flags.writeable
        with pytest.raises(ValueError):
            col[0] = 1.0


def test_y_free_failures_raise_again_on_the_next_solve():
    # a failed evaluation is never cached, so a second solve on the same grid fails alike
    doc = example_config()
    doc["Q"] = ["1", "log(t)"]
    spec = build_problem(doc).spec
    for _ in range(2):
        with pytest.raises(EvalDomainError, match=r"log of a nonpositive value in subexpression log\(t\)$"):
            picard_solve(spec, SolverConfig(N=64))
    spec = scalar_spec(c1="exp(2000*t)", c2="0")
    for _ in range(2):
        with pytest.raises(NonfiniteValue) as err:
            picard_solve(spec, SolverConfig(N=16, max_picard=5))
        assert err.value.iteration == 1


@pytest.mark.parametrize(("alphas", "lambdas"), [
    ([0.0, math.nan], [0.0]),
    ([1.0], [0.0, math.nan]),
    ([1.0], [0.0, 1.5]),
])
def test_band_checks_every_run_before_the_first_solve(alphas, lambdas, example_spec, monkeypatch):
    calls = []
    monkeypatch.setattr(fdvi.solver, "picard_solve", lambda *args: calls.append(args))
    with pytest.raises(DomainError):
        solve_band(example_spec, SolverConfig(N=64), alphas, lambdas)
    assert calls == []


def test_each_y_reading_expression_is_evaluated_once_per_application(example_problem, monkeypatch):
    # the residual check reads the recheck application's Q instead of
    # evaluating it again, so Q is evaluated as often as g, c1, c2 and the field
    counts = {}
    evaluate = fdvi.solver.evaluate

    def counted(e, *args):
        counts[e.source] = counts.get(e.source, 0) + 1
        return evaluate(e, *args)

    monkeypatch.setattr(fdvi.solver, "evaluate", counted)
    spec = example_problem.spec
    bundle = picard_solve(spec, SolverConfig(N=200), example_problem.selection)
    applications = bundle.diagnostics["iterations"] + 1
    exprs = [*spec.Q, *spec.c1, *spec.c2, *spec.field.exprs, *(e for row in spec.g for e in row)]
    y_reading = {e.source for e in exprs if not e.reads <= {"t"}}
    assert any(e.source in y_reading for e in spec.Q)
    assert {source: counts[source] for source in y_reading} == dict.fromkeys(y_reading, applications)
