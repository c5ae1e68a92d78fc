"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Criterion 8's nesting clause is implemented exactly as stated and is known
to fail for this instance: the trajectory's response to the selection
parameter changes sign near t ~ 0.66, so the two-extreme-selection envelope
of an inner membership level pokes above the outer one by ~5e-5 (the
attainable trajectory sets do nest; two-point sampled envelopes do not).
"""

import math
import time

import numpy as np
import pytest

from fdvi.config import build_problem, example_config
from fdvi.errors import DomainError
from fdvi.fractional import GridFunction, UniformGrid, frac_integral
from fdvi.fuzzy import FuzzyIntervalNumber, hausdorff
from fdvi.hypotheses import SamplingDomain, compute_rho, verify
from fdvi.problem import SelectionPolicy, SolverConfig
from fdvi.solver import band_envelope, control_map, phi_part, selection_map, solve_band
from fdvi.special import gamma
from fdvi.vi import AffineOperator, BoxSet, VIInstance, solve_vi
from oracles import sup_norm2

RHO_EXAMPLE = 0.3953


def report(n, name, ok=True, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {n:2d} ({name}): {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_contraction_constant():
    value = compute_rho(0.5, 0.7, 1.6)
    assert value == pytest.approx(RHO_EXAMPLE, abs=5e-4)
    assert value < 1.0
    compute_rho(0.5, 0.7, 1.6)  # warm
    t0 = time.perf_counter()
    for _ in range(100):
        compute_rho(0.5, 0.7, 1.6)
    per_call = (time.perf_counter() - t0) / 100.0
    report(1, "contraction constant", per_call < 1e-3,
           f"rho={value:.6f}, {per_call * 1e6:.1f} us/call")


def test_criterion_02_vi_closed_form(example_spec):
    grid = UniformGrid(0.7, 1000)
    y = GridFunction(grid, 0.1 * np.sin(grid.nodes))
    t0 = time.perf_counter()
    u, _ = control_map(example_spec, y)
    elapsed = time.perf_counter() - t0
    err1 = float(np.max(np.abs(u.values[:, 0])))
    err2 = float(np.max(np.abs(u.values[:, 1] - 1.4 / 3.0 * np.exp(-grid.nodes))))
    report(2, "VI closed form", max(err1, err2) <= 1e-8 and elapsed < 1.0,
           f"max err={max(err1, err2):.2e}, {elapsed:.2f}s")


def test_criterion_03_fractional_integral_oracles():
    worst_exact = 0.0
    for q in (1.1, 1.6, 2.0):
        for t in (0.35, 0.7):
            grid = UniformGrid(t, 2000)
            one = GridFunction(grid, np.ones(2001))
            lin = GridFunction(grid, grid.nodes.copy())
            e1 = abs(frac_integral(q, one, 2000)[0] - t**q / gamma(q + 1.0))
            e2 = abs(frac_integral(q, lin, 2000)[0] - t ** (q + 1.0) / gamma(q + 2.0))
            worst_exact = max(worst_exact, e1, e2)
    assert worst_exact <= 1e-6
    # convergence order on a smooth integrand with nonzero curvature
    ratios = []
    for q in (1.1, 1.6, 2.0):
        for t in (0.35, 0.7):
            errs = []
            for n_nodes in (2000, 4000):
                grid = UniformGrid(t, n_nodes)
                sq = GridFunction(grid, grid.nodes**2)
                exact = 2.0 * t ** (q + 2.0) / gamma(q + 3.0)
                errs.append(abs(frac_integral(q, sq, n_nodes)[0] - exact))
            ratios.append(errs[0] / errs[1])
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    report(3, "fractional-integral oracles", ok,
           f"exactness {worst_exact:.1e}, ratios {min(ratios):.2f}..{max(ratios):.2f}")


def test_criterion_04_empirical_phi_contraction(example_problem):
    rho = compute_rho(0.5, 0.7, 1.6)
    n_nodes = 250
    grid = UniformGrid(0.7, n_nodes)
    h = grid.h
    rng = np.random.default_rng(20260809)
    violations = 0
    worst = -np.inf
    for _ in range(100):
        alpha = float(rng.uniform(0.0, 1.0))
        doc = example_config()
        doc["alpha"] = alpha
        spec = build_problem(doc).spec
        y1 = GridFunction(grid, rng.uniform(-2.0, 2.0, size=n_nodes + 1))
        y2 = GridFunction(grid, rng.uniform(-2.0, 2.0, size=n_nodes + 1))
        policy = SelectionPolicy(rng.uniform(-1.0, 1.0, size=1))
        f1 = selection_map(spec, y1, policy)
        # the nearest selection along y2: f1 clamped onto y2's level boxes
        f2 = GridFunction(grid, np.clip(f1.values, *spec.field.level_arrays(grid.nodes, y2.values, spec.alpha)))
        lhs = float(np.max(np.abs(phi_part(spec, f1).values - phi_part(spec, f2).values)))
        bound = rho * float(np.max(np.abs(y1.values - y2.values))) + 5.0 * h * h
        worst = max(worst, lhs - bound)
        if lhs > bound:
            violations += 1
    report(4, "empirical kernel contraction", violations == 0,
           f"0 violations in 100 pairs, worst margin {worst:.2e}")


def test_criterion_05_solver_fixed_point(solved):
    b1000, b2000, b4000 = solved(1000), solved(2000), solved(4000)
    d = b1000.diagnostics
    ok_res = d["final_residual"] <= 1e-9
    ok_recheck = d["fixed_point_recheck"] <= 2e-9
    ok_boundary = d["boundary_residual"] <= 1e-12
    d12 = float(np.max(np.abs(b1000.y.values - b2000.y.values[::2])))
    d24 = float(np.max(np.abs(b2000.y.values - b4000.y.values[::2])))
    ok_order = d12 <= 4.0 * d24
    report(5, "solver fixed point", ok_res and ok_recheck and ok_boundary and ok_order,
           f"res={d['final_residual']:.1e}, recheck={d['fixed_point_recheck']:.1e}, "
           f"boundary={d['boundary_residual']:.1e}, d12/d24={d12 / d24:.3f}")


def test_criterion_06_caputo_residual_decay(solved):
    residuals = [solved(n).diagnostics["caputo_residual"] for n in (250, 500, 1000, 2000)]
    ratios = [residuals[i + 1] / residuals[i] for i in range(3)]
    report(6, "Caputo residual diagnostic", all(r <= 0.7 for r in ratios),
           "ratios " + ", ".join(f"{r:.3f}" for r in ratios))


def test_criterion_07_hypothesis_report(example_problem, solved):
    problem = example_problem
    report_obj = verify(problem.spec, problem.sampling, claimed=problem.claimed)
    checks = {
        "L_F in [0.45, 0.51]": 0.45 <= report_obj.constants["L_F"] <= 0.51,
        "M1 = 1.2 +- 1e-6": abs(report_obj.constants["M1"] - 1.2) <= 1e-6,
        "M2 = 0.9 +- 1e-6": abs(report_obj.constants["M2"] - 0.9) <= 1e-6,
        "mu = 3": abs(report_obj.constants["mu"] - 3.0) <= 1e-12,
        "coercive quotient -> 3": abs(report_obj.constants["coercive_liminf"] - 3.0) <= 1e-9,
        "overall pass": report_obj.overall_pass,
        "eta_Q reported ~ 9.25": 9.0 <= report_obj.constants["eta_Q"] <= 5 * math.pi / 2 + 1.4 + 1e-9,
        "eta_Q deviation flagged": any("eta_Q" in f for f in report_obj.flags),
        "||y||_sup <= delta": sup_norm2(solved(1000).y) <= report_obj.delta,
    }
    report(7, "hypothesis report", all(checks.values()),
           "; ".join(k for k, v in checks.items() if not v) or
           f"L_F={report_obj.constants['L_F']:.4f}, eta_Q={report_obj.constants['eta_Q']:.3f}, "
           f"delta={report_obj.delta:.2f}")


@pytest.fixture(scope="module")
def band_runs(example_spec):
    return solve_band(example_spec, SolverConfig(N=1000), [0.0, 0.5, 1.0], [-1.0, 1.0])


def test_criterion_08_band_nesting(band_runs):
    assert all(r.ok for r in band_runs)
    env = {}
    for alpha in (0.0, 0.5, 1.0):
        sel = [r for r in band_runs if r.alpha == alpha]
        _, lo, hi = band_envelope(sel)
        env[alpha] = (lo, hi)
    worst = 0.0
    for outer, inner in ((0.0, 0.5), (0.5, 1.0)):
        lo_o, hi_o = env[outer]
        lo_i, hi_i = env[inner]
        worst = max(worst, float(np.max(lo_o - lo_i)), float(np.max(hi_i - hi_o)))
    report(8, "fuzzy band nesting", worst <= 1e-7,
           f"worst envelope violation {worst:.2e} (response to the selection flips "
           "sign near t~0.66, so two-point envelopes of inner levels are not nested)")


def test_criterion_08b_band_alpha1_collapses_to_crisp(band_runs, solved):
    crisp = solved(1000).y.values
    sel = [r for r in band_runs if r.alpha == 1.0]
    _, lo, hi = band_envelope(sel)
    gap = max(float(np.max(np.abs(lo - crisp))), float(np.max(np.abs(hi - crisp))))
    report(8, "alpha=1 band collapses to the crisp trajectory", gap == 0.0, f"gap {gap:.1e}")


def test_criterion_09_metric_and_selection_property_suites():
    rng = np.random.default_rng(97)

    def random_box(dim):
        lo = rng.uniform(-3.0, 2.0, size=dim)
        return BoxSet(lo, lo + rng.uniform(0.01, 3.0, size=dim))

    # Hausdorff metric axioms on 10^3 random triples
    metric_bad = 0
    for _ in range(1000):
        a, b, c = (random_box(2) for _ in range(3))
        dab, dba = hausdorff(a, b), hausdorff(b, a)
        if dab < 0 or dab != dba:
            metric_bad += 1
        if hausdorff(a, a) != 0.0:
            metric_bad += 1
        if dab > hausdorff(a, c) + hausdorff(c, b) + 1e-12:
            metric_bad += 1
    # clamp inequality on 10^4 triples (max norm, exact for boxes)
    clamp_bad = 0
    for _ in range(10_000):
        a, b = random_box(2), random_box(2)
        x = a.lo + (a.hi - a.lo) * rng.random(2)
        if np.max(np.abs(x - b.project(x))) > hausdorff(a, b) + 1e-12:
            clamp_bad += 1
    # alpha-level nestedness on 10^3 random fuzzy numbers
    nest_bad = 0
    for _ in range(1000):
        pts = np.sort(rng.uniform(-5.0, 5.0, size=4))
        w = (FuzzyIntervalNumber.triangular(*pts[:3]) if rng.random() < 0.5
             else FuzzyIntervalNumber.trapezoidal(*pts))
        a1, a2 = np.sort(rng.uniform(0.0, 1.0, size=2))
        (outer_lo, outer_hi), (inner_lo, inner_hi) = w.level(a1), w.level(a2)
        if inner_lo < outer_lo - 1e-12 or inner_hi > outer_hi + 1e-12:
            nest_bad += 1
    report(9, "metric/selection property suites",
           metric_bad == 0 and clamp_bad == 0 and nest_bad == 0,
           f"violations: metric {metric_bad}, clamp {clamp_bad}, nestedness {nest_bad}")


def test_criterion_10_vi_brute_force_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        raw = rng.uniform(-1.0, 1.0, size=(2, 2))
        shift = abs(np.linalg.eigvalsh(0.5 * (raw + raw.T))[0]) + rng.uniform(0.3, 1.2)
        s = AffineOperator(raw + shift * np.eye(2), rng.uniform(-1.0, 1.0, size=2))
        lo = rng.uniform(-0.6, 0.1, size=2)
        hi = lo + rng.uniform(0.3, 0.6, size=2)
        k = BoxSet(lo, hi)
        w = rng.uniform(-2.0, 2.0, size=2)
        inst = VIInstance(k, w, s)
        u = solve_vi(inst)
        xs = np.arange(lo[0], hi[0] + 1e-12, 1e-3)
        ys = np.arange(lo[1], hi[1] + 1e-12, 1e-3)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        f = w + pts @ s.M.T + s.b
        res = np.linalg.norm(pts - np.clip(pts - f, lo, hi), axis=1)
        best = pts[int(np.argmin(res))]
        worst = max(worst, float(np.linalg.norm(u - best)))
    elapsed = time.perf_counter() - t0
    report(10, "VI brute-force equivalence", worst <= 2e-3 and elapsed < 30.0,
           f"worst gap {worst:.2e}, {elapsed:.1f}s for 50 instances")
