import itertools
import math

import numpy as np
import pytest

from fdvi.errors import DimensionMismatch, NonMonotoneError, NotConvergedError
from fdvi.solver import control_map
from fdvi.vi import (
    AffineOperator,
    BoxSet,
    VIInstance,
    _solve_strong,
    solve_vi,
    vi_residual,
)


def orthant_instance(w, diag=3.0, b=None, m=2):
    s = AffineOperator(diag * np.eye(m), np.zeros(m) if b is None else np.asarray(b, dtype=float))
    return VIInstance(BoxSet.orthant(m), np.asarray(w, dtype=float), s)


def random_strongly_monotone(rng, m, mu_min=0.3):
    raw = rng.uniform(-1.0, 1.0, size=(m, m))
    sym_min = np.linalg.eigvalsh(0.5 * (raw + raw.T))[0]
    m_mat = raw + (abs(sym_min) + mu_min + rng.uniform(0.0, 1.0)) * np.eye(m)
    return AffineOperator(m_mat, rng.uniform(-1.0, 1.0, size=m))


# --- projection -----------------------------------------------------------


def test_project_orthant_clamp():
    assert np.allclose(BoxSet.orthant(2).project([1.5, -0.3]), [1.5, 0.0])


def test_contains_takes_a_tolerance_and_checks_the_dimension():
    k = BoxSet.orthant(2)
    assert k.contains([0.0, 1.0]) and not k.contains([-1e-9, 0.0])
    assert k.contains([-1e-9, 0.0], tol=1e-9)
    with pytest.raises(DimensionMismatch):
        k.contains([0.5])  # would broadcast against both bounds


def test_project_idempotent():
    k = BoxSet([-1.0, 0.0], [2.0, np.inf])
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.uniform(-5, 5, size=2)
        p = k.project(x)
        assert np.allclose(k.project(p), p)


def test_project_nonexpansive():
    k = BoxSet([-1.0, 0.0], [2.0, np.inf])
    rng = np.random.default_rng(4)
    for _ in range(500):
        x, z = rng.uniform(-5, 5, size=(2, 2))
        assert np.linalg.norm(k.project(x) - k.project(z)) <= np.linalg.norm(x - z) + 1e-15


def test_project_variational_characterization():
    # <x - Px, z - Px> <= 0 for all z in K
    k = BoxSet([-1.0, -2.0], [1.5, 0.5])
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.uniform(-4, 4, size=2)
        px = k.project(x)
        zs = np.column_stack([rng.uniform(k.lo[i], k.hi[i], size=1000) for i in range(2)])
        assert np.max((zs - px) @ (x - px)) <= 1e-12


# --- solve_vi -------------------------------------------------------------


def test_example_node_closed_form():
    # componentwise complementarity: u_i = max(0, -w_i / 3)
    w = np.array([2.0 * math.pi, -1.4])
    u = solve_vi(orthant_instance(w))
    assert np.allclose(u, [0.0, 1.4 / 3.0], atol=1e-10)


def test_nonnegative_w_gives_zero():
    u = solve_vi(orthant_instance([1.0, 2.0]))
    assert np.allclose(u, 0.0, atol=1e-12)


def test_one_dimensional_complementarity():
    inst = VIInstance(BoxSet([0.0], [np.inf]), np.array([-3.0]), AffineOperator(np.array([[3.0]]), np.zeros(1)))
    assert solve_vi(inst)[0] == pytest.approx(1.0, abs=1e-10)


def test_uniqueness_different_starts_agree():
    rng = np.random.default_rng(43)
    for _ in range(25):
        s = random_strongly_monotone(rng, 3)
        inst = VIInstance(BoxSet.orthant(3), rng.uniform(-2, 2, size=3), s)
        u1 = solve_vi(inst, tol=1e-10, start=np.zeros(3))
        u2 = solve_vi(inst, tol=1e-10, start=rng.uniform(0.0, 5.0, size=3))
        assert np.linalg.norm(u1 - u2) <= 1e-9


def test_solution_bound_via_anchor():
    # ||u*|| <= ||u0|| + (||w|| + ||S(u0)||) / mu for any feasible anchor u0
    rng = np.random.default_rng(47)
    for _ in range(1000):
        m = rng.integers(1, 4)
        s = random_strongly_monotone(rng, m)
        mu = s.mu
        k = BoxSet.orthant(m)
        w = rng.uniform(-3, 3, size=m)
        u = solve_vi(VIInstance(k, w, s))
        u0 = k.project(rng.uniform(-1, 2, size=m))
        bound = np.linalg.norm(u0) + (np.linalg.norm(w) + np.linalg.norm(s(u0))) / mu
        assert np.linalg.norm(u) <= bound + 1e-8


def test_monotone_but_not_strong_rotation():
    rot = AffineOperator(np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros(2))
    assert rot.mu == pytest.approx(0.0, abs=1e-12)
    inst = VIInstance(BoxSet.orthant(2), np.array([1.0, 1.0]), rot)
    u = solve_vi(inst, tol=1e-10)
    assert np.allclose(u, 0.0, atol=1e-7)
    assert vi_residual(inst, u) <= 1e-7 * 3


def test_monotone_zero_operator_on_bounded_box():
    # constant operator field: solution is the minimizing corner
    s = AffineOperator(np.zeros((2, 2)), np.zeros(2))
    inst = VIInstance(BoxSet([0.0, 0.0], [1.0, 1.0]), np.array([1.0, -2.0]), s)
    u = solve_vi(inst, tol=1e-10)
    assert np.allclose(u, [0.0, 1.0], atol=1e-7)


def test_monotone_path_certifies_at_tol():
    # mu ~ 4e-17 and K = [-1, 1]^4 is bounded, so a solution exists; the point
    # returned must have residual within tol itself, not within a looser bound
    m_mat = np.array([
        [3.471065086426164, -0.48467862394704464, 1.4191247264537241, -0.06565123747667924],
        [-0.9342436113126096, 1.3353215608466722, -0.9691641371921422, -1.0325374246403394],
        [1.6045094115750695, 0.25766308621139355, 0.8992666882511002, -0.49074890078528366],
        [-0.2363654570023233, -0.72314122308215, 1.1585025021461741, 1.2546392568096811],
    ])
    w = np.array([-2.62151867738637, -0.21655328242813687, -0.44195520338115957, -0.2261246443355395])
    inst = VIInstance(BoxSet(-np.ones(4), np.ones(4)), w, AffineOperator(m_mat, np.zeros(4)))
    assert abs(inst.s.mu) <= 1e-12
    u = solve_vi(inst, tol=1e-10)
    assert vi_residual(inst, u) <= 1e-10


def solvable_monotone_family(seed=5):
    """20 merely monotone instances for each m in (2, 4, 8), each with a known solution.

    M = A - A^T + B B^T with B of max(1, m // 2) columns; every coordinate of
    K is bounded on at least one side; w puts a chosen point u* of K at a
    solution: F(u*) = 0 where u* is interior, >= 0 at a lower and <= 0 at an
    upper bound.
    """
    rng = np.random.default_rng(seed)
    out = []
    for m in (2, 4, 8):
        for _ in range(20):
            a = rng.normal(size=(m, m))
            bm = rng.normal(size=(m, max(1, m // 2)))
            m_mat = a - a.T + bm @ bm.T
            kind = rng.integers(0, 3, size=m)  # 0 lower bound only, 1 upper only, 2 both
            lo = np.where(kind != 1, rng.uniform(-2.0, 0.0, m), -np.inf)
            hi = np.where(kind != 0, rng.uniform(0.5, 2.0, m), np.inf)
            where = rng.integers(0, 3, size=m)  # u*_i at lo, at hi, or interior
            where = np.where((where == 0) & ~np.isfinite(lo), 2, where)
            where = np.where((where == 1) & ~np.isfinite(hi), 2, where)
            mid = np.where(np.isfinite(lo) & np.isfinite(hi), 0.5 * (lo + hi),
                           np.where(np.isfinite(lo), lo + 1.0, hi - 1.0))
            u_star = np.where(where == 0, lo, np.where(where == 1, hi, mid + rng.uniform(-0.2, 0.2, m)))
            f_star = np.where(where == 0, rng.uniform(0.0, 1.0, m),
                              np.where(where == 1, -rng.uniform(0.0, 1.0, m), 0.0))
            out.append(VIInstance(BoxSet(lo, hi), f_star - m_mat @ u_star, AffineOperator(m_mat, np.zeros(m))))
    return out


def test_monotone_path_certifies_random_solvable_instances():
    for inst in solvable_monotone_family():
        assert inst.s.monotone and not inst.s.strongly_monotone
        assert vi_residual(inst, solve_vi(inst, tol=1e-10)) <= 1e-10


@pytest.mark.parametrize("m_mat, w, lo, hi, least_norm", [
    ([[1, 1], [1, 1]], [-1, -1], [-np.inf, -np.inf], [np.inf, np.inf], [0.5, 0.5]),  # u1 + u2 = 1
    ([[1, 1], [1, 1]], [-1, -1], [0, 0], [np.inf, np.inf], [0.5, 0.5]),
    ([[1, 0], [0, 0]], [1, 0], [-np.inf, -np.inf], [np.inf, np.inf], [-1, 0]),  # u1 = -1, u2 free
    ([[1, 0], [0, 0]], [1, 0], [-1, 0.5], [1, 2], [-1, 0.5]),
    ([[0, 0], [0, 0]], [0, -1], [-1, -1], [1, 1], [0, 1]),  # u2 = 1, u1 free
])
def test_monotone_path_returns_the_least_norm_solution(m_mat, w, lo, hi, least_norm):
    inst = VIInstance(BoxSet(lo, hi), np.asarray(w, dtype=float),
                      AffineOperator(np.asarray(m_mat, dtype=float), np.zeros(2)))
    assert np.max(np.abs(solve_vi(inst, tol=1e-10) - least_norm)) <= 1e-8


def test_monotone_path_failure_reports_its_proximal_steps():
    # F = w is constant and nonzero on R^2: no solution, each step moves u by -w / c
    inst = VIInstance(BoxSet([-np.inf] * 2, [np.inf] * 2), np.array([1.0, 0.0]),
                      AffineOperator(np.zeros((2, 2)), np.zeros(2)))
    with pytest.raises(NotConvergedError, match="12 proximal steps") as info:
        solve_vi(inst, tol=1e-10)
    assert (info.value.iterations, info.value.residual) == (12, 1.0)


def test_monotone_path_stops_at_a_step_whose_projected_iteration_runs_out():
    # one projected iteration is too few for this instance's first step, so the
    # path stops there, with that step's Newton point, before its 12 steps
    inst = solvable_monotone_family()[3]
    with pytest.raises(NotConvergedError, match="^1 proximal steps") as info:
        solve_vi(inst, tol=1e-10, max_iter=1)
    assert info.value.iterations == 1 and info.value.residual > 1e-10
    assert vi_residual(inst, solve_vi(inst, tol=1e-10)) <= 1e-10


def test_non_monotone_rejected():
    s = AffineOperator(-np.eye(2), np.zeros(2))
    with pytest.raises(NonMonotoneError):
        solve_vi(VIInstance(BoxSet.orthant(2), np.zeros(2), s))


def test_dimension_mismatch_detected():
    with pytest.raises(DimensionMismatch):
        VIInstance(BoxSet.orthant(2), np.zeros(3), AffineOperator(np.eye(2), np.zeros(2)))


@pytest.mark.parametrize("make", [
    lambda: AffineOperator(np.ones((2, 3)), np.zeros(2)),
    lambda: AffineOperator(np.eye(2), np.zeros(3)),
    lambda: BoxSet([0.0, 0.0], [1.0]),
], ids=["M_not_square", "b_length", "box_bounds"])
def test_operator_and_box_shapes_are_checked(make):
    with pytest.raises(DimensionMismatch):
        make()


# --- batches ------------------------------------------------------------


def test_batch_matches_row_by_row_solves():
    # non-diagonal S: rows need different iteration counts, some sit on faces of K
    rng = np.random.default_rng(67)
    for _ in range(10):
        s = random_strongly_monotone(rng, 3)
        k = BoxSet(rng.uniform(-1.0, 0.0, size=3), rng.uniform(0.5, 1.5, size=3))
        w = rng.uniform(-3, 3, size=(12, 3))
        batch = VIInstance(k, w, s)
        u = solve_vi(batch, tol=1e-12)
        assert u.shape == (12, 3)
        rows = [VIInstance(k, wi, s) for wi in w]
        singles = np.array([solve_vi(inst, tol=1e-12) for inst in rows])
        assert np.max(np.abs(u - singles)) <= 1e-9
        res = vi_residual(batch, u)
        assert res.shape == (12,) and np.max(res) <= 1e-12
        assert isinstance(vi_residual(rows[0], u[0]), float)
        u0 = k.project(np.zeros(3))
        iters = {_solve_strong(inst, s.mu, 1e-12, 100_000, u0)[1] for inst in rows}
        assert len(iters) > 1


def test_batch_not_converged_names_worst_row():
    rng = np.random.default_rng(71)
    s = random_strongly_monotone(rng, 3)
    k = BoxSet.orthant(3)
    w = rng.uniform(-1, 1, size=(6, 3)) * np.array([0.1, 0.2, 0.3, 5.0, 0.2, 0.1])[:, None]
    inst = VIInstance(k, w, s)
    # one projected step from P_K(0), as the solver takes it
    gamma = s.mu / s.lipschitz**2
    u1 = k.project(-gamma * inst.operator(np.zeros((6, 3))))
    res = vi_residual(inst, u1)
    with pytest.raises(NotConvergedError) as err:
        solve_vi(inst, max_iter=1)
    assert err.value.node == int(np.argmax(res)) == 3
    assert err.value.residual == pytest.approx(np.max(res))


def test_example_node_batch_returns_after_one_projected_step(example_spec, solved):
    # S = 3I on the orthant with Q at a converged y: the first step certifies every row
    spec = example_spec
    assert np.array_equal(spec.S.M, 3.0 * np.eye(spec.m)) and np.array_equal(spec.K.lo, np.zeros(spec.m))
    assert np.all(spec.K.hi == np.inf)
    inst = VIInstance(spec.K, control_map(spec, solved(500).y)[1], spec.S)
    u0 = spec.K.project(spec.anchor_u0)
    u, steps = _solve_strong(inst, spec.S.mu, 1e-10, 100_000, u0)
    assert steps == 1
    assert np.max(vi_residual(inst, u)) <= 1e-10
    with pytest.raises(NotConvergedError):
        _solve_strong(inst, spec.S.mu, 1e-10, 0, u0)


def test_a_certified_start_returns_a_copy_after_no_step():
    # w >= 0 on the orthant: u = 0 solves every row
    inst = orthant_instance(np.array([[1.0, 0.0], [2.0, 3.0]]))
    for w in (inst.w, inst.w[0]):
        u0 = np.zeros(2)
        u, steps = _solve_strong(VIInstance(inst.k, w, inst.s), 3.0, 1e-12, 100_000, u0)
        assert steps == 0 and np.array_equal(u, np.zeros_like(w))
        u[...] = 1.0  # writable, and not the start
        assert np.array_equal(u0, np.zeros(2))


def test_batch_rejected_on_monotone_path():
    s = AffineOperator(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        solve_vi(VIInstance(BoxSet([0.0, 0.0], [1.0, 1.0]), np.ones((3, 2)), s))


# --- residual -------------------------------------------------------------


def test_residual_zero_at_solution_and_certifies():
    inst = orthant_instance([1.0, 1.0], diag=1.0)
    assert vi_residual(inst, np.zeros(2)) == 0.0
    u = solve_vi(orthant_instance([2 * math.pi, -1.4]))
    assert vi_residual(orthant_instance([2 * math.pi, -1.4]), u) <= 1e-10


def test_residual_positive_at_perturbed_points():
    rng = np.random.default_rng(53)
    for _ in range(1000):
        s = random_strongly_monotone(rng, 2)
        inst = VIInstance(BoxSet.orthant(2), rng.uniform(-2, 2, size=2), s)
        u = solve_vi(inst)
        d = rng.standard_normal(2)
        d = 0.1 * d / np.linalg.norm(d)
        assert vi_residual(inst, u + d) > 1e-6


# --- spectral norm and step size -------------------------------------------

# I + the Laplacian of the 4-cycle: symmetric, mu = 1, ||M||_2 = 5.  The
# all-ones vector is an eigenvector of eigenvalue 1, so a power iteration
# started there reads L = 1, and gamma = mu / L^2 then exceeds 2 mu / L^2.
CYCLE4 = np.array([[3.0, -1.0, 0.0, -1.0],
                   [-1.0, 3.0, -1.0, 0.0],
                   [0.0, -1.0, 3.0, -1.0],
                   [-1.0, 0.0, -1.0, 3.0]])


def test_lipschitz_is_the_exact_spectral_norm():
    rng = np.random.default_rng(59)
    mats = [rng.standard_normal((4, 4)) for _ in range(50)] + [CYCLE4]
    for m in mats:
        assert AffineOperator(m, np.zeros(4)).lipschitz == np.linalg.norm(m, 2)
    assert AffineOperator(CYCLE4, np.zeros(4)).lipschitz == pytest.approx(5.0, rel=1e-14)


def test_cycle_operator_unconstrained_solve():
    w = np.array([1.0, 0.0, 0.0, 0.0])
    inst = VIInstance(BoxSet(np.full(4, -np.inf), np.full(4, np.inf)), w, AffineOperator(CYCLE4, np.zeros(4)))
    assert inst.s.mu == pytest.approx(1.0, rel=1e-12)
    u = solve_vi(inst)
    assert vi_residual(inst, u) <= 1e-10
    np.testing.assert_allclose(u, -np.linalg.solve(CYCLE4, w), rtol=0.0, atol=1e-9)


def test_brute_force_grid_search_small():
    # smaller sibling of the acceptance criterion: 5 instances
    rng = np.random.default_rng(61)
    for _ in range(5):
        s = random_strongly_monotone(rng, 2)
        lo = rng.uniform(-0.5, 0.0, size=2)
        hi = lo + rng.uniform(0.3, 0.6, size=2)
        k = BoxSet(lo, hi)
        w = rng.uniform(-1.5, 1.5, size=2)
        inst = VIInstance(k, w, s)
        u = solve_vi(inst)
        xs = np.arange(lo[0], hi[0] + 1e-12, 1e-3)
        ys = np.arange(lo[1], hi[1] + 1e-12, 1e-3)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        f = w + pts @ s.M.T + s.b
        res = np.linalg.norm(pts - np.clip(pts - f, lo, hi), axis=1)
        best = pts[int(np.argmin(res))]
        assert np.linalg.norm(u - best) <= 2e-3


# --- component-major batch against the row-major loop --------------------------


def _row_norms(d):
    """The norm of each row of d, its squares added left to right."""
    sq = d[..., 0] * d[..., 0]
    for j in range(1, d.shape[-1]):
        sq = sq + d[..., j] * d[..., j]
    return np.sqrt(sq)


def _row_major_residual(inst, u):
    return _row_norms(u - inst.k.project(u - inst.operator(u)))


def _row_major_solve(inst, mu, tol, max_iter, u0, gated=True):
    """Row-major twin of _solve_strong on (k, m) rows: one F(u) per iterate for its step and its
    natural-residual test, the test taken after a step of at most max(1, gamma) tol, or always
    when not gated."""
    lip = inst.s.lipschitz
    gamma = mu / (lip * lip)
    u = np.broadcast_to(u0, inst.w.shape)
    for it in range(max_iter + 1):
        fu = inst.operator(u)
        u_next = inst.k.project(u - gamma * fu)
        step = np.max(_row_norms(u_next - u))
        if it == max_iter or not gated or step <= max(1.0, gamma) * tol:
            res = np.atleast_1d(_row_norms(u - inst.k.project(u - fu)))
            if np.max(res) <= tol:
                return u, it
        u = u_next
    worst = int(np.argmax(res))
    raise NotConvergedError("row-major oracle", residual=float(res[worst]), iterations=max_iter, node=worst)


def _outcome(solve, *args):
    """("solved", u, iterations), or ("raised", node, residual) of the NotConvergedError."""
    try:
        return ("solved", *solve(*args))
    except NotConvergedError as exc:
        return ("raised", exc.node, exc.residual)


def _boxes(rng, m):
    return {
        "bounded": BoxSet(rng.uniform(-1.0, 0.0, size=m), rng.uniform(0.5, 1.5, size=m)),
        "half_bounded": BoxSet.orthant(m),
        "unbounded": BoxSet(np.full(m, -np.inf), np.full(m, np.inf)),
    }


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_component_major_products_match_row_major(m):
    rng = np.random.default_rng(100 + m)
    for _ in range(50):
        mat = rng.standard_normal((m, m)) * rng.uniform(0.1, 10.0)
        u = rng.standard_normal((257, m)) * rng.uniform(0.01, 100.0, size=(257, 1))
        assert np.array_equal((u @ mat.T).T, mat @ np.ascontiguousarray(u.T))
        assert np.array_equal(u[0] @ mat.T, mat @ u[0])


@pytest.mark.parametrize("box", ["bounded", "half_bounded", "unbounded"])
@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_component_major_loop_matches_row_major_oracle(m, box):
    # m = 8 is the first size at which np.linalg.norm would sum a row's squares pairwise,
    # so the oracle adds them left to right, in the solver's order;
    # max_iter = 1 stops most batches before they certify
    rng = np.random.default_rng(1000 * m + len(box))
    for _ in range(6):
        s = random_strongly_monotone(rng, m)
        k = _boxes(rng, m)[box]
        u0 = k.project(np.zeros(m))
        for w in (rng.uniform(-3.0, 3.0, size=(40, m)), rng.uniform(-3.0, 3.0, size=m)):
            inst = VIInstance(k, w, s)
            for max_iter in (100_000, 1):
                new, ref = (_outcome(solve, inst, s.mu, 1e-12, max_iter, u0)
                            for solve in (_solve_strong, _row_major_solve))
                assert new[0] == ref[0] and np.array_equal(new[1], ref[1]) and new[2] == ref[2]
            u = _solve_strong(inst, s.mu, 1e-12, 100_000, u0)[0]
            assert np.array_equal(vi_residual(inst, u), _row_major_residual(inst, u))


def test_step_gate_skips_no_certifying_iterate():
    # the solver and its row-major twin return the iterate, bit for bit, of a loop that
    # tests every iterate; S scaled by 0.05 has L < 1, so gamma = mu / L^2 is mostly > 1
    rng = np.random.default_rng(83)
    gammas = []
    for m, scale in itertools.product((1, 2, 3, 5), (1.0, 0.05)):
        for _ in range(8):
            s = random_strongly_monotone(rng, m)
            s = AffineOperator(scale * s.M, s.b)
            gammas.append(s.mu / s.lipschitz**2)
            k = _boxes(rng, m)["bounded"]
            inst = VIInstance(k, rng.uniform(-3.0, 3.0, size=(20, m)), s)
            u0 = k.project(np.zeros(m))
            for tol in (1e-6, 1e-12):
                every = _row_major_solve(inst, s.mu, tol, 100_000, u0, gated=False)
                for u, it in (_solve_strong(inst, s.mu, tol, 100_000, u0), _row_major_solve(inst, s.mu, tol, 100_000, u0)):
                    assert it == every[1] and np.array_equal(u, every[0])
    assert min(gammas) < 1.0 < max(gammas)


def test_residual_broadcasts_a_point_against_a_batch():
    rng = np.random.default_rng(79)
    s = random_strongly_monotone(rng, 3)
    inst = VIInstance(BoxSet.orthant(3), rng.uniform(-2.0, 2.0, size=(5, 3)), s)
    u = rng.uniform(0.0, 1.0, size=3)
    assert np.array_equal(vi_residual(inst, u), _row_major_residual(inst, u))
    with pytest.raises(DimensionMismatch):
        vi_residual(inst, np.zeros((2, 5, 3)))
