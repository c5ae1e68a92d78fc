"""Anderson-mixed Picard sweeps: fewer operator applications, the same fixed point."""

import dataclasses

import numpy as np
import pytest

import fdvi.solver
from fdvi.problem import SelectionPolicy, SolverConfig
from fdvi.solver import _anderson_gamma, _next_iterate, picard_solve


def plain_picard(spec, cfg, policy, monkeypatch):
    """The damped sweep without mixing: a memory of 0 keeps the history empty."""
    with monkeypatch.context() as m:
        m.setattr(fdvi.solver, "ANDERSON_MEMORY", 0)
        return picard_solve(spec, cfg, policy)


def test_example_converges_in_at_most_ten_sweeps(solved):
    d = solved(1000).diagnostics
    assert d["iterations"] <= 10
    assert d["final_residual"] <= 1e-9
    assert d["fixed_point_recheck"] <= 1e-11


@pytest.mark.parametrize("damping", [1.0, 0.6])
def test_mixed_fixed_point_matches_plain_picard(example_spec, monkeypatch, damping):
    policy = SelectionPolicy.constant(0.0, 1)
    mixed = picard_solve(example_spec, SolverConfig(N=1000, damping=damping), policy)
    ref = plain_picard(example_spec, SolverConfig(N=1000, damping=damping, picard_tol=1e-13, max_picard=200),
                       policy, monkeypatch)
    assert np.max(np.abs(mixed.y.values - ref.y.values)) <= 1e-9
    assert mixed.diagnostics["iterations"] < ref.diagnostics["iterations"]


def test_memory_zero_is_the_plain_damped_sweep(example_spec, monkeypatch):
    cfg = SolverConfig(N=200, damping=0.7)
    policy = SelectionPolicy.constant(0.0, 1)
    plain = plain_picard(example_spec, cfg, policy, monkeypatch)
    y = np.zeros((cfg.N + 1, 1))
    for res in plain.diagnostics["picard_residuals"]:
        ty = fdvi.solver._apply_operator(example_spec, cfg, policy, fdvi.solver.GridFunction(plain.y.grid, y))[0]
        new = (1.0 - cfg.damping) * y + cfg.damping * ty
        assert float(np.max(np.abs(new - y))) == res
        y = new
    assert np.array_equal(y, plain.y.values)


def test_random_alpha_lambda_draws_converge(example_spec):
    rng = np.random.default_rng(20261019)
    cfg = SolverConfig(N=400)
    for _ in range(20):
        spec = dataclasses.replace(example_spec, alpha=float(rng.uniform(0.0, 1.0)))
        policy = SelectionPolicy(np.array([rng.uniform(-1.0, 1.0)]))
        d = picard_solve(spec, cfg, policy).diagnostics
        assert d["converged"] and d["iterations"] <= 10
        assert d["fixed_point_recheck"] <= 1e-9


# --- the mixing step ------------------------------------------------------------


def test_gamma_is_the_least_squares_fit(rng):
    f = rng.standard_normal((50, 2))
    dfs = [rng.standard_normal((50, 2)) for _ in range(2)]
    gamma = _anderson_gamma(f, dfs)
    expected = np.linalg.lstsq(np.stack([d.ravel() for d in dfs], axis=1), f.ravel(), rcond=None)[0]
    assert np.allclose(gamma, expected, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("dfs", [
    [np.zeros((4, 1))],  # a zero column
    [np.arange(4.0).reshape(4, 1), 2.0 * np.arange(4.0).reshape(4, 1)],  # parallel columns
])
def test_singular_gram_has_no_gamma(dfs):
    assert _anderson_gamma(np.ones((4, 1)), dfs) is None


def _triple(y, f):
    return (y, f, float(np.max(np.abs(f))))


def test_first_sweep_and_growing_residual_take_the_plain_step(rng):
    theta = 0.4
    y, ty = rng.standard_normal((6, 1)), rng.standard_normal((6, 1))
    current = _triple(y, ty - y)
    plain = (1.0 - theta) * y + theta * ty
    assert np.array_equal(_next_iterate(ty, current, [], theta), plain)
    # a previous residual no larger than this one shuts the gate
    past = [_triple(y + 1.0, (ty - y) / 2.0)]
    assert np.array_equal(_next_iterate(ty, current, past, theta), plain)
    past = [_triple(y + 1.0, ty - y)]
    assert np.array_equal(_next_iterate(ty, current, past, theta), plain)


def test_mixing_solves_a_contracting_linear_map_in_few_sweeps():
    # T(y) = a y + b on two decoupled coordinates: memory 2 spans the secant
    # space, so the third mixed step lands on the fixed point to rounding
    a, b = np.array([[0.5, -0.3]]), np.array([[1.0, 2.0]])
    fixed = b / (1.0 - a)
    y, past = np.zeros((1, 2)), []
    for _ in range(4):
        ty = a * y + b
        current = _triple(y, ty - y)
        y_next = _next_iterate(ty, current, past, 1.0)
        past = (past + [current])[-2:]
        y = y_next
    assert np.allclose(y, fixed, rtol=0, atol=1e-13)


# --- the closed-form fit against the Gram solve it replaced ----------------------


def _gram_solve_gamma(f, dfs):
    """The eigvalsh/solve fit on the unit-diagonal Gram matrix, as it ran before the closed form."""
    gram = np.array([[float(np.sum(a * b)) for b in dfs] for a in dfs])
    rhs = np.array([float(np.sum(a * f)) for a in dfs])
    scale = np.sqrt(gram.diagonal())
    if not np.all(scale > 0.0):
        return None
    unit = gram / scale[:, None] / scale[None, :]
    if np.linalg.eigvalsh(unit)[0] <= fdvi.solver._GRAM_FLOOR:
        return None
    return np.linalg.solve(unit, rhs / scale) / scale


def test_closed_form_gamma_matches_the_gram_solve():
    # Half the pairs are nearly parallel, 1 - |r| from about 1e-2 down past the
    # floor.  The oracle's unit diagonal is 1 to an ulp or two, which moves x by
    # up to eps |c| / (1 - |r|)^2; the bound below is a few of those.
    rng = np.random.default_rng(20261019)
    eps = np.finfo(float).eps
    singular = 0
    for i in range(1000):
        rows, n = int(rng.integers(1, 300)), int(rng.integers(1, 3))
        f = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-12.0, 2.0)
        a = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-12.0, 2.0)
        if i % 2:
            noise = 10.0 ** rng.uniform(-10.0, -1.0) * np.max(np.abs(a))
            b = rng.uniform(-3.0, 3.0) * a + noise * rng.standard_normal((rows, n))
        else:
            b = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-12.0, 2.0)
        for dfs in ([a, b], [a]):
            gamma, ref = _anderson_gamma(f, dfs), _gram_solve_gamma(f, dfs)
            assert (gamma is None) == (ref is None)
            if gamma is None:
                singular += 1
                continue
            scale = np.array([np.sqrt(np.sum(d * d)) for d in dfs])
            c = np.array([np.sum(d * f) for d in dfs]) / scale
            gap = 1.0 - abs(float(np.sum(a * b)) / scale[0] / scale[-1]) if len(dfs) == 2 else 1.0
            assert np.all(np.abs(np.array(gamma) - ref) <= 8.0 * eps * np.sum(np.abs(c)) / gap**2 / scale)
    assert 50 <= singular <= 450  # both sides of the floor are exercised
