import dataclasses
import json
import math

import numpy as np
import pytest

import fdvi.hypotheses
from fdvi.config import build_problem, example_config
from fdvi.errors import AnchorNotFeasible, ConfigError, DimensionMismatch, DomainError, NonMonotoneError
from fdvi.expr import evaluate, parse
from fdvi.fuzzy import FieldComponent, FuzzyBoxField, FuzzyIntervalNumber, fuzzy_metric
from fdvi.hypotheses import (
    CONSTANTS,
    SAMPLED_CONSTANTS,
    SamplingDomain,
    SumObjective,
    _pattern_maximize,
    _sample_times,
    _stream,
    check_coercivity,
    compute_delta,
    compute_eta_s,
    compute_rho,
    estimate_constants,
    estimate_field_lipschitz,
    verify,
)
from fdvi.special import gamma
from fdvi.vi import AffineOperator, BoxSet, VIInstance, solve_vi, vi_residual
from oracles import field_at


def small_domain(seed=20260809, y_samples=1024):
    return SamplingDomain(np.array([-8.0]), np.array([8.0]), t_samples=16,
                          y_samples=y_samples, seed=seed)


# --- sampling domain ----------------------------------------------------------


@pytest.mark.parametrize("lo, hi", [
    ([math.nan], [1.0]), ([0.0], [math.nan]), ([-math.inf], [1.0]), ([0.0], [math.inf]),
    ([0.0, -math.inf], [1.0, 1.0]),
    ([-1e308], [1e308]),  # finite ends, but the width overflows
])
def test_sampling_box_ends_must_be_finite(lo, hi):
    with pytest.raises(DomainError, match="finite"):
        SamplingDomain(lo, hi, t_samples=8, y_samples=64)


@pytest.mark.parametrize("lo, hi, message", [
    ([0.0, 0.0], [1.0], "equal length"),
    ([0.0, 1.0], [1.0, 1.0], "nondegenerate"),
])
def test_sampling_box_must_be_a_box(lo, hi, message):
    with pytest.raises(DomainError, match=message):
        SamplingDomain(lo, hi, t_samples=8, y_samples=64)


def test_sampling_box_of_another_dimension_is_rejected(example_spec):
    with pytest.raises(DomainError, match="sampling box has dimension 2, problem n = 1"):
        estimate_constants(example_spec, SamplingDomain([0.0, 0.0], [1.0, 1.0], t_samples=8, y_samples=64))


@pytest.mark.parametrize("counts", [{"t_samples": 2.5}, {"y_samples": 64.0}, {"t_samples": "8"}])
def test_sample_counts_must_be_integers(counts):
    with pytest.raises(DomainError, match="integers"):
        SamplingDomain([0.0], [1.0], **{"t_samples": 8, "y_samples": 64, **counts})
    assert SamplingDomain([0.0], [1.0], t_samples=np.int64(8), y_samples=64).t_samples == 8


@pytest.mark.parametrize("seed", [2.5, 2.0, "3", None, -1, 2**64, np.int64(-5)])
def test_seed_must_be_an_integer_in_the_philox_key_range(seed):
    with pytest.raises(DomainError, match="seed"):
        SamplingDomain([0.0], [1.0], t_samples=8, y_samples=64, seed=seed)


def test_every_seed_in_range_names_its_own_stream():
    top = SamplingDomain([0.0], [1.0], t_samples=8, y_samples=64, seed=np.uint64(2**64 - 1))
    assert type(top.seed) is int and top.seed == 2**64 - 1
    # seeds at and above 2^63 once went through float64 and collided with seed 0
    draws = {seed: _stream(seed, 2).random(4).tobytes() for seed in (0, 2**63 + 1, 2**64 - 2, 2**64 - 1)}
    assert len(set(draws.values())) == 4
    # below 2^63 the stream is the one the seed always named
    for seed in (0, 7, 20260809, 2**63 - 1):
        legacy = np.random.Generator(np.random.Philox(key=[seed, 2]))
        assert _stream(seed, 2).random(4).tobytes() == legacy.random(4).tobytes()


# --- pattern search -----------------------------------------------------------


def one_at_a_time_maximize(fn, x0, lo, hi, sweeps=80):
    """The pattern search evaluated one move at a time: the oracle for the batched one.

    fn maps (k, d) points to (k,) values and is called on one point at a time.
    Returns (best, arg, number of fn calls, number of accepted moves).
    """
    calls = accepted = 0

    def one(x):
        nonlocal calls
        calls += 1
        return float(fn(x[None])[0])

    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    best = one(x)
    step = (hi - lo) / 8.0
    for _ in range(sweeps):
        improved = False
        for i in range(x.shape[0]):
            for sgn in (1.0, -1.0):
                trial = x.copy()
                trial[i] = min(max(trial[i] + sgn * step[i], lo[i]), hi[i])
                val = one(trial)
                if val > best:
                    best, x, improved = val, trial, True
                    accepted += 1
        if not improved:
            step *= 0.5
            if np.max(step) < 1e-14 * max(1.0, float(np.max(hi - lo))):
                break
    return best, x, calls, accepted


def random_objective(rng, d, plateau=False):
    """A smooth multimodal objective of (k, d) points with a -inf veto half-space.

    With plateau, the values are rounded to one decimal, so most moves tie.
    """
    centre = rng.uniform(-3.0, 3.0, d)
    weight = rng.uniform(0.2, 2.0, d)
    freq = rng.uniform(0.5, 4.0, d)
    veto_dir = rng.standard_normal(d)
    veto_at = rng.uniform(0.5, 2.0)

    def fn(x):
        vals = -np.sum(weight * (x - centre) ** 2, axis=1) + np.sum(np.sin(freq * x), axis=1)
        vals = np.round(vals, 1) if plateau else vals
        return np.where(x @ veto_dir > veto_at, -math.inf, vals)

    return fn


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_batched_polish_follows_the_one_at_a_time_path(d, monkeypatch):
    rng = np.random.default_rng(100 + d)
    # the default batch after an accepted move, one sweep's rest, every level at once
    budgets = (fdvi.hypotheses._POLISH_ROWS, 1, 2**15)
    for sweeps in (80, 1, 2, 5):
        for kind in ("smooth", "plateau", "zero_width"):
            saved = total = 0
            for _ in range(25):
                fn = random_objective(rng, d, plateau=kind == "plateau")
                # boxes that often cut the optimum off, starts that often need clipping
                lo = rng.uniform(-2.5, 0.0, d)
                hi = lo + rng.uniform(0.1, 3.0, d)
                if kind == "zero_width":  # some coordinates fixed, as the state in M0's polish
                    fixed = rng.random(d) < 0.5
                    fixed[rng.integers(d)] = True
                    hi[fixed] = lo[fixed]
                x0 = rng.uniform(-3.0, 3.0, d)
                ref_best, ref_arg, ref_calls, accepted = one_at_a_time_maximize(fn, x0, lo, hi, sweeps)
                x_in = np.clip(x0, lo, hi)
                for polish_rows in budgets:
                    monkeypatch.setattr(fdvi.hypotheses, "_POLISH_ROWS", polish_rows)
                    calls = rows = 0
                    path = []

                    def counted(x):
                        nonlocal calls, rows
                        calls += 1
                        rows += x.shape[0]
                        path.append(x.copy())
                        return fn(x)

                    best, arg = _pattern_maximize(counted, x0, lo, hi, sweeps=sweeps)
                    assert best == ref_best
                    assert np.array_equal(arg, ref_arg)
                    # seeded with the value at the (clipped) start, the search
                    # skips that one evaluation and then tries the same batches
                    seeded_path = []
                    seeded = _pattern_maximize(lambda x: seeded_path.append(x.copy()) or fn(x), x_in, lo, hi,
                                               sweeps=sweeps, value=float(fn(x_in[None])[0]))
                    assert seeded[0] == best
                    assert np.array_equal(seeded[1], arg)
                    assert len(seeded_path) == len(path) - 1
                    assert all(np.array_equal(a, b) for a, b in zip(seeded_path, path[1:]))
                    if not np.array_equal(x_in, x0):  # a value at a start outside the box is not used
                        outside = _pattern_maximize(fn, x0, lo, hi, sweeps=sweeps, value=math.inf)
                        assert outside[0] == best
                        assert np.array_equal(outside[1], arg)
                    # a batch that finds a move discards at most one batch after an
                    # accepted move, one sweep, and as many rows as the batches before it
                    assert rows <= 2 * ref_calls + accepted * (max(polish_rows, 2 * d) + 2 * d)
                    if polish_rows == 2**15:
                        # one call for the start, one per accepted move, one that finds no better move
                        assert calls <= accepted + 2
                    if sweeps == 80:
                        assert calls < ref_calls
                    else:  # a capped search may accept every move it tries
                        assert calls <= ref_calls
                    if polish_rows == budgets[0]:
                        saved += ref_calls - calls
                        total += ref_calls
            if sweeps == 80 and kind != "zero_width":  # at d = 1 a zero-width box has no moves to save
                assert saved > total // 3


@pytest.mark.parametrize("block_rows", [100, 500])
def test_polish_batches_stay_within_the_block_rows(block_rows, monkeypatch):
    monkeypatch.setattr(fdvi.hypotheses, "_BLOCK_ROWS", block_rows)
    d = 40
    rng = np.random.default_rng(7)
    fn = random_objective(rng, d)
    lo, hi = np.full(d, -2.0), np.full(d, 2.0)
    x0 = rng.uniform(-2.0, 2.0, d)
    batches = []

    def counted(x):
        batches.append(x.shape[0])
        return fn(x)

    best, arg = _pattern_maximize(counted, x0, lo, hi)
    ref_best, ref_arg, *_ = one_at_a_time_maximize(fn, x0, lo, hi)
    assert best == ref_best
    assert np.array_equal(arg, ref_arg)
    assert max(batches) <= max(2 * d, block_rows)
    if block_rows >= 4 * d:  # the cap leaves room for the halvings to batch several sweeps
        assert max(batches) > 2 * d


def test_polish_halvings_take_few_calls():
    d = 40
    calls = 0

    def flat(x):
        nonlocal calls
        calls += 1
        return np.zeros(x.shape[0])

    lo, hi = np.full(d, -2.0), np.full(d, 2.0)
    best, arg = _pattern_maximize(flat, np.zeros(d), lo, hi)
    assert (best, calls - 1) == (0.0, 4)  # 44 halvings in batches of 3, 6, 12 and 23 sweeps
    assert one_at_a_time_maximize(flat, np.zeros(d), lo, hi)[2] == 1 + 44 * 2 * d


@pytest.mark.parametrize("widths", [[4e-14], [4e-14] * 3, [2.0, 1e-300, 1e-310]])
def test_polish_of_tiny_boxes_follows_the_one_at_a_time_path(widths):
    # a box whose first step, width / 8, is below the floor of 1e-14 stops after
    # its first sweep that accepts no move; steps halved into the subnormals
    # take the same values as the one-at-a-time search's
    rng = np.random.default_rng(11)
    widths = np.array(widths)
    for _ in range(5):
        fn = random_objective(rng, widths.size)
        lo = rng.uniform(-1.0, 1.0, widths.size) * widths
        hi = lo + widths
        x0 = rng.uniform(lo, hi)
        best, arg = _pattern_maximize(fn, x0, lo, hi)
        ref_best, ref_arg, *_ = one_at_a_time_maximize(fn, x0, lo, hi)
        assert best == ref_best
        assert np.array_equal(arg, ref_arg)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_polish_moves_only_the_coordinates_the_objective_reads(d):
    rng = np.random.default_rng(500 + d)
    for kind in ("smooth", "plateau"):
        for _ in range(20):
            live = np.zeros(d, dtype=bool)
            live[rng.choice(d, int(rng.integers(1, d)), replace=False)] = True
            inner = random_objective(rng, int(live.sum()), plateau=kind == "plateau")

            def fn(x, inner=inner, live=live):
                return inner(x[:, live])

            lo = rng.uniform(-2.5, 0.0, d)
            hi = lo + rng.uniform(0.1, 3.0, d)
            # a dead coordinate may hold the box's widest side, which sets the step floor
            hi[~live] = lo[~live] + rng.choice([0.5, 1e4], int((~live).sum()))
            x0 = rng.uniform(-3.0, 3.0, d)
            points = []
            full = _pattern_maximize(fn, x0, lo, hi)
            masked = _pattern_maximize(lambda x: points.append(x.copy()) or fn(x), x0, lo, hi, live=live)
            assert masked[0] == full[0]
            assert np.array_equal(masked[1], full[1])
            # no evaluated point moves a dead coordinate off the (clipped) start
            points = np.concatenate(points)
            assert np.array_equal(points[:, ~live], np.broadcast_to(np.clip(x0, lo, hi)[~live], points[:, ~live].shape))
    # with no live coordinate the search returns its start; handed the value there, it calls nothing
    calls = []
    x_in = np.clip(x0, lo, hi)
    best, arg = _pattern_maximize(lambda x: calls.append(x) or fn(x), x_in, lo, hi, value=1.5, live=np.zeros(d, bool))
    assert (best, calls) == (1.5, []) and np.array_equal(arg, x_in)


def test_example_verify_polish_calls(example_problem, monkeypatch):
    calls = 0
    search = fdvi.hypotheses._pattern_maximize

    def counted_search(fn, *args, **kwargs):
        def counted(x):
            nonlocal calls
            calls += 1
            return fn(x)

        return search(counted, *args, **kwargs)

    monkeypatch.setattr(fdvi.hypotheses, "_pattern_maximize", counted_search)
    verify(example_problem.spec, example_problem.sampling, claimed=example_problem.claimed)
    # 7 polishes (six constants and L_F), each started from its grid value; one
    # batch per sweep would take about 400 calls, and evaluating each start
    # again 57.  The field reads no t, so M0's polish, over the time alone,
    # has no move to try and calls nothing (it took one call of 86 rows)
    assert calls == 49


# --- compute_rho -------------------------------------------------------------


def test_rho_example_value():
    assert compute_rho(0.5, 0.7, 1.6) == pytest.approx(0.3953, abs=5e-4)


def test_rho_zero_lipschitz():
    assert compute_rho(0.0, 5.0, 1.7) == 0.0


def test_rho_at_unit_order():
    # Gamma(2) = 1
    assert compute_rho(0.5, 1.0, 1.0) == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("l_f, rho", [(0.5, math.inf), (0.0, 0.0)])
def test_rho_reads_an_overflowing_horizon_power_as_inf(l_f, rho):
    # 1e200 ** 1.6 is beyond the float range; rho is never NaN
    assert compute_rho(l_f, 1e200, 1.6) == rho


def test_rho_domain_errors():
    with pytest.raises(DomainError):
        compute_rho(-0.1, 1.0, 1.5)
    with pytest.raises(DomainError):
        compute_rho(0.5, 0.0, 1.5)
    with pytest.raises(DomainError):
        compute_rho(0.5, 1.0, 2.5)


# --- eta_S -------------------------------------------------------------------


def test_eta_s_scaled_identity():
    s = AffineOperator(3.0 * np.eye(2), np.zeros(2))
    assert compute_eta_s(s, np.zeros(2)) == pytest.approx(1.0 / 3.0)


def test_eta_s_identity():
    s = AffineOperator(np.eye(2), np.zeros(2))
    assert compute_eta_s(s, np.zeros(2)) == pytest.approx(1.0)


def test_eta_s_requires_positive_mu():
    s = AffineOperator(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(DomainError):
        compute_eta_s(s, np.zeros(2))


def test_eta_s_soundness_on_random_instances():
    # every VI solution satisfies ||u*|| <= eta_S (1 + ||w||)
    rng = np.random.default_rng(31)
    for _ in range(1000):
        m = int(rng.integers(1, 4))
        raw = rng.uniform(-1, 1, size=(m, m))
        shift = abs(np.linalg.eigvalsh(0.5 * (raw + raw.T))[0]) + rng.uniform(0.2, 1.5)
        s = AffineOperator(raw + shift * np.eye(m), rng.uniform(-1, 1, size=m))
        k = BoxSet.orthant(m)
        u0 = k.project(rng.uniform(-1, 1, size=m))
        w = rng.uniform(-4, 4, size=m)
        u = solve_vi(VIInstance(k, w, s), start=u0)
        eta = compute_eta_s(s, u0)
        assert np.linalg.norm(u) <= eta * (1.0 + np.linalg.norm(w)) + 1e-8


# --- delta -------------------------------------------------------------------


def test_delta_degenerate_constants():
    assert compute_delta(0, 0, 0, 0, 0, 0, 1.0, 1.5, 0.0) == pytest.approx(1.0)


def test_delta_simple_arithmetic():
    # numerator 1, rho = 0.5 -> 1/(1-0.5) + 1 = 3; build numerator = 1 via M1 T = 1
    assert compute_delta(0, 0, 0, 0, 1.0, 0.0, 1.0, 1.5, 0.5) == pytest.approx(3.0)


def test_delta_matches_hand_formula():
    m0, eta_g, eta_s, eta_q, m1, m2, t, q, rho = 0.5, 3.27, 1 / 3, 9.25, 1.2, 0.9, 0.7, 1.6, 0.3953
    byhand = (2 * (m0 + eta_g * eta_s * (1 + eta_q)) * t**q / gamma(q + 1) + (m1 + m2) * t) / (1 - rho) + 1
    assert compute_delta(m0, eta_g, eta_s, eta_q, m1, m2, t, q, rho) == pytest.approx(byhand, rel=1e-14)


def test_delta_reads_an_overflowing_horizon_power_as_inf():
    assert compute_delta(0.5, 0, 1.0, 0, 0, 0, 1e200, 1.6, 0.0) == math.inf
    # with no T^q term the rest stays finite, never NaN
    assert compute_delta(0, 0, 1.0, 0, 1.0, 0, 1e200, 1.6, 0.0) == 1e200 + 1.0


def test_delta_requires_contraction():
    with pytest.raises(DomainError):
        compute_delta(0, 0, 0, 0, 0, 0, 1.0, 1.5, 1.0)


# --- coercivity ---------------------------------------------------------------


def test_coercivity_scaled_identity_on_orthant():
    s = AffineOperator(3.0 * np.eye(2), np.zeros(2))
    monotone, mu, liminf, exact = check_coercivity(s, BoxSet.orthant(2), np.zeros(2))
    assert monotone and mu == pytest.approx(3.0)
    # the eigenvalue 3 repeats, and the faces {1} and {2} find it exactly
    assert (liminf, exact) == (3.0, True)


def test_coercivity_zero_operator_fails():
    s = AffineOperator(np.zeros((2, 2)), np.zeros(2))
    monotone, mu, liminf, _ = check_coercivity(s, BoxSet.orthant(2), np.zeros(2))
    assert monotone and mu == pytest.approx(0.0)
    assert liminf == 0.0


def test_coercivity_rotation_monotone_but_not_coercive():
    rot = AffineOperator(np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros(2))
    monotone, mu, liminf, _ = check_coercivity(rot, BoxSet.orthant(2), np.zeros(2))
    assert monotone and mu == pytest.approx(0.0, abs=1e-12)
    assert liminf == 0.0


def test_coercivity_bounded_box_is_vacuous():
    s = AffineOperator(np.zeros((2, 2)), np.zeros(2))
    _, _, liminf, exact = check_coercivity(s, BoxSet([0.0, 0.0], [1.0, 1.0]), np.zeros(2))
    assert (liminf, exact) == (math.inf, True)


def test_coercivity_anchor_must_be_feasible():
    s = AffineOperator(np.eye(2), np.zeros(2))
    # the second anchor is 1e-3 outside K, though within 1e-5 of it relative to its size
    for k, u0 in ((BoxSet.orthant(2), [-1.0, 0.0]),
                  (BoxSet([0.0, 0.0], [1000.0, 1000.0]), [1000.001, 0.0])):
        with pytest.raises(AnchorNotFeasible):
            check_coercivity(s, k, np.array(u0))


def random_box(rng, m):
    """A box K whose coordinates are each free, >= a, <= a or bounded on both sides."""
    lo, hi = np.full(m, -math.inf), np.full(m, math.inf)
    for i, kind in enumerate(rng.choice(["free", "ge", "le", "bounded"], m)):
        a = rng.uniform(-2.0, 2.0)
        if kind in ("ge", "bounded"):
            lo[i] = a
        if kind == "le":
            hi[i] = a
        if kind == "bounded":
            hi[i] = a + rng.uniform(0.1, 3.0)
    return BoxSet(lo, hi)


def cone_scan(sym, k, dirs):
    """Smallest d^T sym d over the unit rows of dirs clamped into K's recession cone and renormalised.

    Returns inf when the cone is {0}.  Clamping is the projection onto the
    cone, so every clamped row is a direction of the cone, and one within r
    of a minimizer lands within 2r of it after renormalising.
    """
    d = np.where(np.isfinite(k.lo), np.maximum(dirs, 0.0), dirs)
    d = np.where(np.isfinite(k.hi), np.minimum(d, 0.0), d)
    norms = np.linalg.norm(d, axis=1)
    d = d[norms > 0.0] / norms[norms > 0.0, None]
    return float(np.min(np.einsum("ij,jk,ik->i", d, sym, d))) if d.size else math.inf


def fibonacci_sphere(count):
    """count nearly evenly spread unit vectors of R^3; every unit vector is within sqrt(4 pi / count) of one."""
    i = np.arange(count) + 0.5
    z = 1.0 - 2.0 * i / count
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    r = np.sqrt(1.0 - z * z)
    return np.column_stack((r * np.cos(phi), r * np.sin(phi), z))


@pytest.mark.parametrize("m", [2, 3])
def test_coercivity_is_the_minimum_of_a_dense_direction_scan(m):
    count = 100_000
    if m == 2:
        theta = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        dirs, radius = np.column_stack((np.cos(theta), np.sin(theta))), math.pi / count
    else:
        dirs, radius = fibonacci_sphere(count), math.sqrt(4.0 * math.pi / count)
    rng = np.random.default_rng(300 + m)
    kinds = set()
    for _ in range(40):
        s = AffineOperator(rng.uniform(-2.0, 2.0, (m, m)), rng.uniform(-1.0, 1.0, m))
        k = random_box(rng, m)
        kinds.add(tuple(np.isfinite(k.lo) * 1 + np.isfinite(k.hi) * 2))
        monotone, mu, liminf, exact = check_coercivity(s, k, k.project(rng.uniform(-3.0, 3.0, m)))
        assert (monotone, mu, exact) == (s.monotone, s.mu, True)
        sym = 0.5 * (s.M + s.M.T)
        scan = cone_scan(sym, k, dirs)
        if k.bounded:
            assert liminf == scan == math.inf
            continue
        # d^T A d is 2 ||A||-Lipschitz on the unit sphere
        gap = 2.0 * np.linalg.norm(sym, 2) * 2.0 * radius
        assert mu <= liminf <= scan + 1e-12
        assert scan - liminf <= gap
    assert len(kinds) > 10  # the boxes mix every kind of coordinate


@pytest.mark.parametrize("m_mat, lo, hi, liminf", [
    # eigenvalue 2 twice: its eigenspace meets the open face of {1, 2}, and the faces {1}, {2} find it
    (np.diag([2.0, 2.0, 5.0]), [0.0, 0.0, 0.0], [math.inf] * 3, 2.0),
    (3.0 * np.eye(3), [-math.inf, 0.0, -math.inf], [math.inf, math.inf, 1.0], 3.0),
    # mu = -1 along (1, -1), which leaves the orthant; on it the minimum is 1, at e1 and e2
    (np.array([[1.0, 2.0], [2.0, 1.0]]), [0.0, 0.0], [math.inf, math.inf], 1.0),
    # the same on the cone d1 >= 0, d2 <= 0, which holds (1, -1)
    (np.array([[1.0, 2.0], [2.0, 1.0]]), [0.0, -math.inf], [math.inf, 0.0], -1.0),
    # a coordinate bounded on both sides drops out: only e1 is left
    (np.array([[4.0, 2.0], [2.0, -7.0]]), [-math.inf, 0.0], [math.inf, 1.0], 4.0),
], ids=["repeated", "3I-mixed", "orthant-cuts-mu", "cone-holds-mu", "bounded-coordinate"])
def test_coercivity_exact_values(m_mat, lo, hi, liminf):
    s = AffineOperator(m_mat, np.zeros(len(lo)))
    k = BoxSet(lo, hi)
    monotone, mu, value, exact = check_coercivity(s, k, k.project(np.zeros(len(lo))))
    assert (value, exact) == (pytest.approx(liminf, abs=1e-15), True)
    assert value >= mu


def test_coercivity_over_the_face_cap_reports_mu(example_spec, monkeypatch):
    s = AffineOperator(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2))
    assert check_coercivity(s, BoxSet.orthant(2), np.zeros(2))[2:] == (pytest.approx(1.0, abs=1e-15), True)
    cap = fdvi.hypotheses._FACE_CAP
    big = AffineOperator(np.eye(cap + 1), np.zeros(cap + 1))
    assert check_coercivity(big, BoxSet.orthant(cap + 1), np.zeros(cap + 1)) == (True, big.mu, big.mu, False)
    monkeypatch.setattr(fdvi.hypotheses, "_FACE_CAP", 1)
    # two signed coordinates are over a cap of one: mu = -1 is a lower bound of the liminf 1
    monotone, mu, liminf, exact = check_coercivity(s, BoxSet.orthant(2), np.zeros(2))
    assert (liminf, exact) == (mu, False) and mu == pytest.approx(-1.0)
    # a coordinate bounded on both sides is not signed, and a bounded K needs no faces
    assert check_coercivity(s, BoxSet([0.0, 0.0], [math.inf, 1.0]), np.zeros(2))[2:] == (1.0, True)
    assert check_coercivity(s, BoxSet([0.0, 0.0], [1.0, 1.0]), np.zeros(2))[2:] == (math.inf, True)
    report = verify(example_spec, small_domain(y_samples=64))
    assert report.constants["coercive_liminf"] == report.constants["mu"] == 3.0
    assert report.verdicts["A6_coercivity"]["liminf_quotient"] == 3.0
    assert report.flags[-1].startswith("coercive_liminf is mu, a lower bound")
    monkeypatch.undo()
    assert not any("coercive_liminf" in flag for flag in verify(example_spec, small_domain(y_samples=64)).flags)


@pytest.mark.parametrize("offset, inside", [(1e-13, True), (1e-10, False)])
def test_anchor_membership_has_one_tolerance(offset, inside):
    # the config loader and the coercivity check agree on whether u0 is in K
    doc = example_config()
    doc["anchor_u0"] = [-offset, 0.0]
    try:
        problem = build_problem(doc)
        loaded = True
    except ConfigError as exc:
        assert exc.pointer == "/anchor_u0"
        loaded = False
    k = BoxSet.orthant(2)
    try:
        check_coercivity(AffineOperator(3.0 * np.eye(2), np.zeros(2)), k, doc["anchor_u0"])
        checked = True
    except AnchorNotFeasible:
        checked = False
    assert loaded == checked == inside
    if inside:
        assert problem.spec.anchor_u0.tolist() == [-offset, 0.0]


@pytest.mark.parametrize("m_mat, monotone, strong", [
    (3.0 * np.eye(2), True, True),
    (np.array([[0.0, 1.0], [-1.0, 0.0]]), True, False),
    (np.diag([1.0, -1.0]), False, False),
], ids=["3I", "rotation", "indefinite"])
def test_every_consumer_reads_the_operators_monotonicity(example_spec, m_mat, monotone, strong):
    s = AffineOperator(m_mat, np.zeros(2))
    assert (s.monotone, s.strongly_monotone) == (monotone, strong)
    k = BoxSet([-1.0, -1.0], [1.0, 1.0])
    single = VIInstance(k, np.array([1.0, -1.0]), s)
    batch = VIInstance(k, np.array([[1.0, -1.0], [0.5, 2.0], [-3.0, 0.0]]), s)
    if strong:
        assert np.max(vi_residual(batch, solve_vi(batch))) <= 1e-10
        assert dataclasses.replace(example_spec, S=s).S is s
    elif monotone:
        assert vi_residual(single, solve_vi(single)) <= 1e-10
        with pytest.raises(DimensionMismatch):
            solve_vi(batch)
        with pytest.raises(DomainError, match="strongly monotone"):
            dataclasses.replace(example_spec, S=s)
    else:
        with pytest.raises(NonMonotoneError):
            solve_vi(single)
        with pytest.raises(NonMonotoneError):
            dataclasses.replace(example_spec, S=s)
    assert check_coercivity(s, BoxSet.orthant(2), np.zeros(2))[0] is monotone


# --- estimate_constants --------------------------------------------------------


def test_constants_on_example(example_spec):
    consts = estimate_constants(example_spec, small_domain())
    # the slope of 0.5 cos(y1) is 0.5 |sin(y1)|, polished onto its maximum
    assert consts["L_F"] == pytest.approx(0.5, abs=1e-12) and consts["L_F"] <= 0.5
    assert consts["p_sup"] == pytest.approx(0.5, abs=1e-9)
    assert consts["M0"] == pytest.approx(0.5, abs=1e-12)
    assert consts["M1"] == pytest.approx(1.2, abs=1e-6)
    assert consts["M2"] == pytest.approx(0.9, abs=1e-6)
    # 1.2 |sin t| + 2.5 |cos y| <= 1.2 sin(0.7) + 2.5 on [0, 0.7]
    assert consts["eta_g"] == pytest.approx(1.2 * math.sin(0.7) + 2.5, abs=1e-6)


def test_constants_zero_scale_field():
    field = FuzzyBoxField([FieldComponent(
        base=FuzzyIntervalNumber.triangular(-0.5, 0.0, 0.5),
        scale=parse("0", 1), offset=parse("0.25", 1))])
    spec_like = type("S", (), {})()  # estimate_constants only touches these fields
    spec_like.n = 1
    spec_like.T = 0.7
    spec_like.field = field
    spec_like.Q = (parse("1", 1),)
    spec_like.g = ((parse("0", 1),),)
    spec_like.c1 = (parse("0", 1),)
    spec_like.c2 = (parse("0", 1),)
    consts = estimate_constants(spec_like, small_domain(y_samples=256))
    assert consts["L_F"] == 0.0
    assert consts["p_sup"] == pytest.approx(0.25, abs=1e-12)


def pair_metric(field, ts, y1s, y2s):
    """The fuzzy metric between the field at (ts, y1s) and at (ts, y2s), batched over rows.

    From the alpha = 0 and 1 levels, as fuzzy_metric; the oracle of the slope.
    """
    out = np.zeros(np.shape(ts))
    for alpha in (0.0, 1.0):
        lo1, hi1 = field.level_arrays(ts, y1s, alpha)
        lo2, hi2 = field.level_arrays(ts, y2s, alpha)
        out = np.maximum(out, np.max(np.maximum(np.abs(lo1 - lo2), np.abs(hi1 - hi2)), axis=1))
    return out


def pair_quotient_max(field, lo, hi, t_horizon, pairs, seed):
    """Largest metric / ||y1 - y2|| over random pairs with log-uniform distances: the pair estimate of L_F."""
    rng = np.random.default_rng(seed)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    y1 = lo + (hi - lo) * rng.random((pairs, lo.shape[0]))
    dirs = rng.standard_normal((pairs, lo.shape[0]))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = np.exp(rng.uniform(math.log(1e-5), math.log(0.5 * float(np.max(hi - lo))), size=pairs))
    y2 = np.clip(y1 + radii[:, None] * dirs, lo, hi)
    ts = rng.uniform(0.0, t_horizon, pairs)
    dist = np.linalg.norm(y1 - y2, axis=1)
    kept = dist >= 1e-6
    return float(np.max(pair_metric(field, ts[kept], y1[kept], y2[kept]) / dist[kept]))


def polished_l_f(field, dom, t_horizon):
    """estimate_constants' L_F for a field alone: its largest sampled slope, polished over the box."""
    ts, ys = fdvi.hypotheses._sample_grid(dom, t_horizon)
    box = (dom.y_box_lo, dom.y_box_hi)
    return fdvi.hypotheses._polished_max(field.slope, field.exprs, ts, ys, t_horizon, box)[0]


def test_metric_over_pairs_matches_scalar_fuzzy_metric():
    # the batched pair metric, the slope's oracle, measures fuzzy_metric
    field = FuzzyBoxField([
        FieldComponent(FuzzyIntervalNumber.trapezoidal(-0.6, -0.1, 0.2, 0.7),
                       scale=parse("0.5 + 0.3*y2", 2), offset=parse("0.2*t*y1", 2)),
        FieldComponent(FuzzyIntervalNumber.triangular(-0.5, 0.1, 0.5),
                       scale=parse("sin(y1)", 2), offset=parse("0.1*y2", 2)),
    ])
    rng = np.random.default_rng(41)
    ts = rng.uniform(0.0, 1.0, 400)
    y1s = rng.uniform(-4.0, 4.0, (400, 2))
    y2s = rng.uniform(-4.0, 4.0, (400, 2))
    assert np.any(np.sin(y1s[:, 0]) * np.sin(y2s[:, 0]) < 0.0)
    batch = pair_metric(field, ts, y1s, y2s)
    scalar = [fuzzy_metric(field_at(field, t, a), field_at(field, t, b)) for t, a, b in zip(ts, y1s, y2s)]
    np.testing.assert_allclose(batch, scalar, rtol=1e-14, atol=1e-15)


def per_time_constants(spec, dom):
    """estimate_constants, one sampled time at a time and polished one move at a time."""
    ts = _sample_times(spec.T, dom.t_samples, _stream(dom.seed, 1))
    lo, hi = dom.y_box_lo, dom.y_box_hi
    ys = lo + (hi - lo) * _stream(dom.seed, 2).random((dom.y_samples, spec.n))

    def row_sum(exprs, t, batch, fn):
        acc = np.zeros(batch.shape[0])
        for e in exprs:
            acc += fn(np.broadcast_to(np.asarray(evaluate(e, t, batch), dtype=float), acc.shape))
        return acc

    def field_norm(t, batch):
        f_lo, f_hi = spec.field.level_arrays(np.full(batch.shape[0], t), batch, 0.0)
        return np.linalg.norm(np.maximum(np.abs(f_lo), np.abs(f_hi)), axis=1)

    g = [e for row in spec.g for e in row]
    table = {
        "L_F": (spec.field.slope, ys, True),
        "p_sup": (field_norm, ys, True),
        "eta_g": (lambda t, b: row_sum(g, t, b, np.abs), ys, True),
        "eta_Q": (lambda t, b: row_sum(spec.Q, t, b, np.abs), ys, True),
        "M1": (lambda t, b: np.sqrt(row_sum(spec.c1, t, b, np.square)), ys, True),
        "M2": (lambda t, b: np.sqrt(row_sum(spec.c2, t, b, np.square)), ys, True),
        "M0": (field_norm, np.zeros((1, spec.n)), False),
    }
    consts, witnesses = {}, {}
    for name, (fn, states, boxed) in table.items():
        best, wt, wy = -math.inf, 0.0, states[0]
        for t in ts:
            vals = fn(float(t), states)
            idx = int(np.argmax(vals))
            if vals[idx] > best:
                best, wt, wy = float(vals[idx]), float(t), states[idx]
        box_lo, box_hi = (lo, hi) if boxed else (wy, wy)
        val, arg, *_ = one_at_a_time_maximize(
            lambda x: fn(float(x[0, 0]), x[:, 1:]),
            np.concatenate(([wt], wy)),
            np.concatenate(([0.0], box_lo)),
            np.concatenate(([spec.T], box_hi)),
        )
        if val > best:
            best, wt, wy = val, float(arg[0]), arg[1:]
        consts[name] = best
        witnesses[name] = {"t": wt, "y": wy.tolist()} if boxed else {"t": wt}
    return consts, witnesses


def _two_dim_problem():
    doc = example_config()
    doc.update({
        "q": 1.7, "T": 0.9, "n": 2,
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
    return build_problem(doc).spec


def _constant_q_problem():
    doc = example_config()
    doc["Q"] = ["2", "-1"]
    return build_problem(doc).spec


@pytest.mark.parametrize("case", ["example", "two_dim", "constant_Q", "two_blocks"])
def test_blocked_sampling_matches_per_time_loop(case, example_problem):
    spec, dom = example_problem.spec, example_problem.sampling
    if case == "two_dim":
        spec = _two_dim_problem()
        dom = SamplingDomain(np.array([-3.0, -2.0]), np.array([3.0, 2.5]), t_samples=24,
                             y_samples=900, seed=5)
    elif case == "constant_Q":
        spec = _constant_q_problem()
    if case == "two_blocks":
        dom = SamplingDomain(dom.y_box_lo, dom.y_box_hi, t_samples=70, y_samples=5000, seed=dom.seed)
        assert 70 * 5000 > fdvi.hypotheses._BLOCK_ROWS
    consts = estimate_constants(spec, dom)
    witnesses = consts.pop("witnesses")
    ref_consts, ref_witnesses = per_time_constants(spec, dom)
    assert set(consts) == set(SAMPLED_CONSTANTS)
    assert consts == ref_consts
    assert witnesses == ref_witnesses
    if case == "constant_Q":
        # every point ties: the witness is the first time and the first state
        ys = dom.y_box_lo + (dom.y_box_hi - dom.y_box_lo) * _stream(dom.seed, 2).random((dom.y_samples, 1))
        assert witnesses["eta_Q"] == {"t": 0.0, "y": ys[0].tolist()}
        assert consts["eta_Q"] == 3.0


def test_sampling_block_size_does_not_change_the_results(example_problem, monkeypatch):
    spec, dom = example_problem.spec, example_problem.sampling
    # a grid of 64 x 4096 rows, eight 2**15 blocks
    assert dom.t_samples * dom.y_samples == 2**18
    exprs = spec.field.exprs
    results = []
    for block_rows in (2**18, 2**15, 1000, 7):
        monkeypatch.setattr(fdvi.hypotheses, "_BLOCK_ROWS", block_rows)
        # the unpolished estimate's witness is the grid max's
        _, wt, wy = fdvi.hypotheses._grid_max(spec.field.slope, exprs, *fdvi.hypotheses._sample_grid(dom, spec.T))
        consts = estimate_constants(spec, dom)
        results.append([estimate_field_lipschitz(spec.field, dom, spec.T),
                        {"t": wt, "y": wy.tolist()}, consts["witnesses"]["L_F"], consts])
    assert all(result == results[0] for result in results[1:])


def test_estimate_constants_draws_the_grid_once(example_problem, monkeypatch):
    draws = 0
    sample_grid = fdvi.hypotheses._sample_grid

    def counted(*args):
        nonlocal draws
        draws += 1
        return sample_grid(*args)

    monkeypatch.setattr(fdvi.hypotheses, "_sample_grid", counted)
    consts = estimate_constants(example_problem.spec, small_domain(y_samples=64))
    assert draws == 1
    assert set(consts["witnesses"]) == set(SAMPLED_CONSTANTS)


def test_m0_polish_moves_the_time_alone_at_n8(monkeypatch):
    problem = build_problem(generated_doc(8))
    dom = dataclasses.replace(problem.sampling, t_samples=8, y_samples=256)
    search, dims = fdvi.hypotheses._pattern_maximize, []

    def recorded(fn, x0, *args, **kwargs):
        dims.append(len(x0))
        return search(fn, x0, *args, **kwargs)

    monkeypatch.setattr(fdvi.hypotheses, "_pattern_maximize", recorded)
    consts = estimate_constants(problem.spec, dom)
    # six constants search (t, y), 18 moves a sweep; M0's state stays at the
    # origin, so its search tries t + step and t - step alone
    assert sorted(dims) == [1] + [9] * 6
    assert set(consts["witnesses"]["M0"]) == {"t"}


def test_verify_reads_l_f_from_the_constants_table(example_problem, monkeypatch):
    spec, dom = example_problem.spec, small_domain(y_samples=256)
    single = fdvi.hypotheses.estimate_field_lipschitz
    calls = []
    monkeypatch.setattr(fdvi.hypotheses, "estimate_field_lipschitz",
                        lambda *args, **kwargs: calls.append(args) or single(*args, **kwargs))
    report = verify(spec, dom)
    assert calls == []  # L_F is a row of estimate_constants' table, not a second estimate
    assert report.constants["L_F"] == estimate_constants(spec, dom)["L_F"] == polished_l_f(spec.field, dom, spec.T)
    assert report.witnesses["L_F"] == estimate_constants(spec, dom)["witnesses"]["L_F"]


def full_grid_max(fn, ts, states):
    """The oracle for _grid_max: the first maximum of fn over every time x state, in (time, state) order."""
    vals = np.broadcast_to(fn(ts[:, None], states), (ts.shape[0], states.shape[0]))
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    return float(vals[i, j]), float(ts[i]), states[j].tolist()


def _support_norm(field):
    def fn(t, states):
        f_lo, f_hi = field.level_arrays(t, states, 0.0)
        return np.linalg.norm(np.maximum(np.abs(f_lo), np.abs(f_hi)), axis=-1)

    return fn


@pytest.mark.parametrize("scale, offset, reads", [
    ("0.5*cos(y1) - 0.2*y2", "atan(y2)", "y"),
    ("1.2*sin(3*t)", "exp(-t)", "t"),
    ("sin(t*y1)", "0.3*y2", "ty"),
    ("cos(y1) + 0.5", "t^2", "ty"),  # each expression reads one axis, the objective both
    ("2", "-pi", ""),  # a constant field: every point ties
])
@pytest.mark.parametrize("block_rows", [2**15, 700, 1])
def test_grid_max_over_the_axes_read_matches_the_full_grid(scale, offset, reads, block_rows, monkeypatch):
    monkeypatch.setattr(fdvi.hypotheses, "_BLOCK_ROWS", block_rows)
    field = FuzzyBoxField([
        FieldComponent(FuzzyIntervalNumber.trapezoidal(-0.6, -0.1, 0.2, 0.7), parse(scale, 2), parse(offset, 2)),
        FieldComponent(FuzzyIntervalNumber.triangular(-0.5, 0.1, 0.5), parse(offset, 2), parse(scale, 2)),
    ])
    exprs = field.exprs
    ts = _sample_times(0.9, 40, _stream(3, 1))
    states = -3.0 + 6.0 * _stream(3, 2).random((300, 2))
    pair = (parse(scale, 2), parse(offset, 2))
    objectives = [(field.slope, exprs), (_support_norm(field), exprs),
                  (lambda t, ys: SumObjective(pair, np.abs)(t, ys), pair)]  # a sum _grid_max cannot see
    for fn, read in objectives:
        seen = []

        def counted(t, ys):
            seen.append((t.shape[0], ys.shape[0]))
            return fn(t, ys)

        best, wt, wy = fdvi.hypotheses._grid_max(counted, read, ts, states)
        assert (best, wt, wy.tolist()) == full_grid_max(fn, ts, states)
        # the objective saw every sampled time only if it reads t, every state only if it reads y
        assert sum(rows for rows, _ in seen) == (40 if "t" in reads else 1)
        assert {cols for _, cols in seen} == {300 if "y" in reads else 1}
    # a sum of one term per expression: each expression is evaluated once,
    # unless one of them reads both t and y, which takes the blocked pass
    mixed = any("t" in e.reads and len(e.reads) > 1 for e in pair)
    blocks = -(-40 // max(1, block_rows // 300)) if mixed else 1
    for fn in (SumObjective(pair, np.abs), SumObjective(pair, np.square, np.sqrt)):
        evaluated = []
        monkeypatch.setattr(fdvi.hypotheses, "evaluate",
                            lambda e, t, ys: evaluated.append(e.source) or evaluate(e, t, ys))
        best, wt, wy = fdvi.hypotheses._grid_max(fn, pair, ts, states)
        assert evaluated == [scale, offset] * blocks
        assert (best, wt, wy.tolist()) == full_grid_max(fn, ts, states)


def random_separable_sum(rng, n):
    """Two to five terms, each reading t, one state coordinate or neither, none both.

    Small integer coefficients on lattice points tie often.
    """
    def term():
        axis = rng.choice(["t", f"y{rng.integers(1, n + 1)}", ""])
        coef = str(rng.integers(0, 4))
        if not axis:
            return coef
        return coef + "*" + rng.choice([axis, f"abs({axis} - 1)", f"{axis}^2", f"min({axis}, 1)", f"cos({axis})"])

    return tuple(parse(term(), n) for _ in range(rng.integers(2, 6)))


@pytest.mark.parametrize("block_rows", [2**15, 700, 1])
def test_grid_max_of_tied_separable_sums_matches_the_full_grid(block_rows, monkeypatch):
    monkeypatch.setattr(fdvi.hypotheses, "_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(2025)
    for _ in range(150):
        exprs = random_separable_sum(rng, 2)
        # times and states on a lattice, with repeats: rows and columns tie
        ts = np.concatenate(([0.0, 2.0], rng.integers(0, 5, 38) / 2.0))
        states = rng.integers(-3, 4, (300, 2)).astype(float)
        for fn in (SumObjective(exprs, np.abs), SumObjective(exprs, np.square, np.sqrt)):
            best, wt, wy = fdvi.hypotheses._grid_max(fn, exprs, ts, states)
            assert (best, wt, wy.tolist()) == full_grid_max(fn, ts, states)
    # rows whose bounds differ but whose maxima tie: the two state terms sum
    # to 2 at every state and their maxima to 4, and near 2^54, where doubles
    # are 4 apart, 2^54 + 16 is both the bound and the maximum of the t = 3
    # rows, and the maximum of the t = 4 rows, whose bound is 2^54 + 20
    exprs = tuple(parse(s, 1) for s in ("abs(y1 + 1)", "abs(y1 - 1)", "2^54 + 4*t"))
    fn = SumObjective(exprs, np.abs)
    for _ in range(20):
        ts = rng.integers(0, 5, 40).astype(float)
        states = rng.integers(-1, 2, (300, 1)).astype(float)
        best, wt, wy = fdvi.hypotheses._grid_max(fn, exprs, ts, states)
        assert (best, wt, wy.tolist()) == full_grid_max(fn, ts, states)


def test_example_sum_bounds_skip_the_rows_below_the_maximum(example_problem, monkeypatch):
    # eta_g is |1.2 sin(t)| + |-2.5 cos(y1)|: the row whose time maximises the
    # first term holds the maximum, and its bound is attained there
    spec, dom = example_problem.spec, example_problem.sampling
    g = tuple(e for row in spec.g for e in row)
    total = SumObjective.total
    rows = []

    def recorded(self, terms):
        out = total(self, terms)
        if self.exprs == g and np.shape(out)[1:] == (dom.y_samples,):  # full rows of the grid
            rows.append(out.shape[0])
        return out

    monkeypatch.setattr(SumObjective, "total", recorded)
    estimate_constants(spec, dom)
    assert rows == [1]  # the blocked pass evaluates all 64


def test_t_free_objectives_see_one_time_row(example_problem, monkeypatch):
    # the example's field, c1 and c2 read no t; each entry of its g and Q
    # reads t or y1, and is evaluated once over the axis it reads
    spec, dom = example_problem.spec, example_problem.sampling
    rows, grids = {}, {}

    def record(fn, key):
        def recorded(*args):
            t = args[1]  # (self, ts, ...) or (expression, t, y)
            if np.ndim(t) == 2:  # a grid block of (k, 1) times; the polish passes (k,) times
                rows[key(args)] = rows.get(key(args), 0) + t.shape[0]
            return fn(*args)

        return recorded

    def record_evaluation(e, t, y):
        if np.ndim(t) == 2:
            grids.setdefault(e.source, []).append((t.shape[0], np.shape(y)[0]))
        return evaluate(e, t, y)

    monkeypatch.setattr(FuzzyBoxField, "slope", record(FuzzyBoxField.slope, lambda args: "slope"))
    monkeypatch.setattr(FuzzyBoxField, "level_arrays", record(FuzzyBoxField.level_arrays, lambda args: "levels"))
    monkeypatch.setattr(fdvi.hypotheses, "evaluate", record_evaluation)
    verify(spec, dom, claimed=example_problem.claimed)
    assert rows == {"slope": 1, "levels": 2}  # L_F; p_sup and M0
    # (times, states) of each grid evaluation: c1 and c2 at the first time
    # alone, g's and Q's t-only entries at the first state alone
    by_axis = {"t": [(dom.t_samples, 1)], "y": [(1, dom.y_samples)]}
    g = [e for row in spec.g for e in row]
    assert grids == {e.source: by_axis["y" if e.reads - {"t"} else "t"] for e in [*g, *spec.Q, *spec.c1, *spec.c2]}
    assert sorted(grids.values()) == [by_axis["y"]] * 4 + [by_axis["t"]] * 2


@pytest.mark.parametrize("seed", [0, 7, 1009])
@pytest.mark.parametrize("case", ["example", "n8"])
def test_each_polish_starts_from_the_objectives_bits_at_the_grid_witness(case, seed, example_problem, monkeypatch):
    # a grid value is computed in a (k, s) block, the polish's value at the
    # same point in a batch of one row: the grid's value may stand in for the
    # polish's only if an element gets the same bits whatever the length of
    # the array it sits in
    problem = example_problem if case == "example" else build_problem(generated_doc(8))
    dom = dataclasses.replace(problem.sampling, seed=seed)
    search, starts = fdvi.hypotheses._pattern_maximize, []

    def recorded(fn, x0, lo, hi, **kwargs):
        starts.append((float(fn(np.clip(x0, lo, hi)[None])[0]).hex(), kwargs["value"].hex()))
        return search(fn, x0, lo, hi, **kwargs)

    monkeypatch.setattr(fdvi.hypotheses, "_pattern_maximize", recorded)
    estimate_constants(problem.spec, dom)
    assert len(starts) == len(SAMPLED_CONSTANTS)
    assert all(at_witness == grid for at_witness, grid in starts)


def test_lipschitz_estimate_never_exceeds_true_constant(example_spec):
    # the slope of 0.5 cos(y1) is 0.5 |sin(y1)|, never above 0.5
    dom = SamplingDomain(np.array([-8.0]), np.array([8.0]), t_samples=8, y_samples=256, seed=1)
    unpolished = estimate_field_lipschitz(example_spec.field, dom, 0.7)
    val = estimate_constants(example_spec, dom)["L_F"]
    assert 0.45 <= unpolished <= val <= 0.5
    assert val == pytest.approx(0.5, abs=1e-12)


# --- L_F as the largest local slope -------------------------------------------------


def _affine_field():
    return FuzzyBoxField([
        FieldComponent(FuzzyIntervalNumber.trapezoidal(-0.6, -0.1, 0.2, 0.7),
                       scale=parse("0.5 + 0.3*y2 - 0.1*y1 + t", 2), offset=parse("0.2*y1 - 0.4*y2", 2)),
        FieldComponent(FuzzyIntervalNumber.triangular(-0.5, 0.1, 0.5),
                       scale=parse("2 - y1", 2), offset=parse("0.1*y2 + sin(t)", 2)),
    ])


def test_slope_is_exact_on_fields_affine_in_y():
    field = _affine_field()
    # component 1 at c = 0.7: (0.2 - 0.07, -0.4 + 0.21); component 2 at c = 0.5: (-0.5, 0.1)
    expected = max(math.sqrt((0.2 + c * -0.1) ** 2 + (-0.4 + c * 0.3) ** 2) for c in (-0.6, 0.7))
    expected = max(expected, *(math.sqrt((c * -1.0) ** 2 + 0.1**2) for c in (-0.5, 0.5)))
    rng = np.random.default_rng(3)
    ts, ys = rng.uniform(0.0, 2.0, 50), rng.uniform(-5.0, 5.0, (50, 2))
    np.testing.assert_array_equal(field.slope(ts, ys), np.full(50, expected))
    dom = SamplingDomain(np.array([-5.0, -5.0]), np.array([5.0, 5.0]), t_samples=4, y_samples=16, seed=2)
    assert estimate_field_lipschitz(field, dom, 2.0) == expected
    # metric / distance of an affine field nears the slope and never exceeds it
    assert 0.999 * expected <= pair_quotient_max(field, dom.y_box_lo, dom.y_box_hi, 2.0, 20_000, 9) <= expected


def test_slope_is_inf_where_a_partial_is_not_finite():
    tri = FuzzyIntervalNumber.triangular(-0.5, 0.0, 0.5)
    ys = np.array([[0.0], [0.25]])
    # 0.5 / sqrt(0) is inf; in -sqrt(y1) written as below it is inf - inf,
    # nan, which counts as not finite too
    for scale in ("sqrt(y1)", "sqrt(y1) - 2*sqrt(y1)"):
        field = FuzzyBoxField([FieldComponent(tri, scale=parse(scale, 1), offset=parse("0", 1))])
        assert field.slope(0.0, ys)[0] == math.inf
    field = FuzzyBoxField([FieldComponent(tri, scale=parse("sqrt(y1)", 1), offset=parse("0", 1))])
    assert field.slope(0.0, ys)[1] == 0.5 * 0.5 / 0.5


def generated_doc(n):
    """A config whose field components couple three neighbouring coordinates; its L_F is sqrt(0.4024).

    Component i: trapezoid (-0.5, -0.1, 0.2, 0.6), scale cos(y_i) + 0.3 sin(y_(i+1)) exp(-t),
    offset 0.1 atan(y_(i+2)) cos(t), indices mod n, box [-10, 10]^n.  At c = 0.6, t = 0 the
    slope is sqrt(0.6^2 + 0.18^2 + 0.1^2).
    """
    doc = example_config()
    y = lambda i: f"y{i % n + 1}"  # noqa: E731
    doc.update({
        "n": n,
        "fuzzy": [{"type": "trapezoidal", "a": -0.5, "b": -0.1, "c": 0.2, "d": 0.6,
                   "scale": f"cos({y(i)}) + 0.3*sin({y(i + 1)})*exp(-t)",
                   "offset": f"0.1*atan({y(i + 2)})*cos(t)"} for i in range(n)],
        "g": [[f"0.1*sin({y(i)})", "0"] for i in range(n)],
        "c1": [f"0.1*sin({y(i)})" for i in range(n)],
        "c2": [f"0.1*cos({y(i)})" for i in range(n)],
        "sampling": {"y_box": {"lo": [-10.0] * n, "hi": [10.0] * n}},
        "selection": {"lambda": [0.0] * n},
        "claimed": {},
    })
    return doc


def test_slope_finds_the_hand_derived_sup_at_n8():
    problem = build_problem(generated_doc(8))
    consts = estimate_constants(problem.spec, problem.sampling)
    assert abs(consts["L_F"] - math.sqrt(0.4024)) <= 1e-12
    assert consts["witnesses"]["L_F"]["t"] == 0.0


@pytest.mark.parametrize("doc", [example_config(), generated_doc(2), generated_doc(3)],
                         ids=["example", "generated2", "generated3"])
def test_refining_the_grid_never_lowers_a_grid_maximum(doc, monkeypatch):
    # The refined draws extend the coarse ones (counter-based streams), so
    # the grid maximum cannot fall.  The polished value can: generated_doc(3)
    # at seed 5 has p_sup 1.32616915113207 at 32 x 256 and 1.2817629942533038
    # at 64 x 512.  So the polish is the identity here.
    monkeypatch.setattr(fdvi.hypotheses, "_pattern_maximize",
                        lambda fn, x0, lo, hi, value=None, live=None: (value, x0))
    problem = build_problem(doc)
    for seed in range(6):
        coarse = None
        for t_samples, y_samples in ((8, 64), (16, 128), (32, 256), (64, 512)):
            dom = dataclasses.replace(problem.sampling, t_samples=t_samples, y_samples=y_samples, seed=seed)
            consts = estimate_constants(problem.spec, dom)
            if coarse is not None:
                assert all(consts[k] >= coarse[k] for k in SAMPLED_CONSTANTS), (seed, t_samples)
            coarse = consts


def _random_field(rng, n):
    """A field of random trapezoids whose scales and offsets mix smooth functions of two coordinates."""
    terms = ["sin({})", "cos({})", "atan({})", "exp(-({})^2)", "({})/(1 + abs({}))", "sqrt(1 + ({})^2)"]
    comps = []
    for _ in range(n):
        exprs = []
        for _ in range(2):
            parts = []
            for _ in range(2):
                k = int(rng.integers(1, n + 1))
                term = terms[int(rng.integers(len(terms)))]
                parts.append(f"{rng.uniform(-1.0, 1.0):.3f}*" + term.format(*[f"y{k}"] * term.count("{}")))
            exprs.append(parse(" + ".join(parts) + f" + {rng.uniform(0.0, 1.0):.3f}*t", n))
        comps.append(FieldComponent(FuzzyIntervalNumber.trapezoidal(*np.sort(rng.uniform(-2.0, 2.0, 4))),
                                    scale=exprs[0], offset=exprs[1]))
    return FuzzyBoxField(comps)


@pytest.mark.parametrize("case", range(6))
def test_slope_is_never_below_the_pair_quotients(case):
    rng = np.random.default_rng(100 + case)
    n = 1 + case % 3
    field = _random_field(rng, n)
    dom = SamplingDomain(np.full(n, -3.0), np.full(n, 3.0), t_samples=8, y_samples=512, seed=case)
    slope = polished_l_f(field, dom, 1.0)
    pairs = pair_quotient_max(field, dom.y_box_lo, dom.y_box_hi, 1.0, 20_000, case)
    assert slope >= pairs


def test_slope_is_never_below_the_pair_quotients_on_the_two_dim_problem():
    spec = _two_dim_problem()
    dom = SamplingDomain(np.array([-3.0, -2.0]), np.array([3.0, 2.5]), t_samples=24, y_samples=900, seed=5)
    slope = estimate_constants(spec, dom)["L_F"]
    assert slope >= pair_quotient_max(spec.field, dom.y_box_lo, dom.y_box_hi, spec.T, 100_000, 5)


def test_estimates_monotone_in_refinement(example_spec):
    # same seed, more samples: constants never decrease
    small = estimate_constants(example_spec, small_domain(y_samples=512))
    large = estimate_constants(example_spec, small_domain(y_samples=2048))
    for key in ("L_F", "p_sup", "eta_g", "eta_Q", "M1", "M2", "M0"):
        assert large[key] >= small[key] - 1e-12


# --- verify -------------------------------------------------------------------


def test_verify_example_passes(example_spec):
    report = verify(example_spec, small_domain(), claimed={"eta_Q": 5 * math.pi / 2})
    assert report.overall_pass
    assert report.rho == pytest.approx(0.3953, abs=5e-4)
    assert report.constants["mu"] == pytest.approx(3.0)
    assert report.constants["coercive_liminf"] == pytest.approx(3.0, abs=1e-9)
    assert report.constants["eta_S"] == pytest.approx(1.0 / 3.0)
    assert report.delta is not None and report.delta > 0
    assert report.rho == pytest.approx(compute_rho(report.constants["L_F"], 0.7, 1.6), rel=1e-14)
    assert any("eta_Q" in f for f in report.flags)
    # delta recomputable from the report fields
    c = report.constants
    byhand = compute_delta(c["M0"], c["eta_g"], c["eta_S"], c["eta_Q"], c["M1"], c["M2"], 0.7, 1.6, report.rho)
    assert report.delta == pytest.approx(byhand, rel=1e-14)


def test_report_schema_comes_from_the_constants_table(example_spec):
    report = verify(example_spec, small_domain(y_samples=64)).as_dict()
    assert SAMPLED_CONSTANTS == ("L_F", "p_sup", "eta_g", "eta_Q", "M0", "M1", "M2")
    assert set(report["constants"]) == set(CONSTANTS)
    assert report["norms"] == {name: row.norm for name, row in CONSTANTS.items()}
    # the bound verdicts are those whose only entry besides "pass" is a constant
    bound = {verdict: set(body) - {"pass"} for verdict, body in report["verdicts"].items()
             if len(body) == 2 and set(body) - {"pass"} <= set(CONSTANTS)}
    assert bound == {row.verdict: {name} for name, row in CONSTANTS.items() if row.verdict}
    assert set(bound) == {"A1_lipschitz_field", "A3_field_bound", "A4_g_bound", "A5_Q_bound"}
    for verdict, (name,) in bound.items():
        assert report["verdicts"][verdict] == {"pass": True, name: report["constants"][name]}


def test_verify_rejects_claimed_names_it_does_not_sample(example_spec):
    with pytest.raises(DomainError, match="eta_q"):
        verify(example_spec, small_domain(y_samples=64), claimed={"eta_q": 1.0})


def test_verify_inflated_horizon_fails_contraction(example_spec):
    from fdvi.config import build_problem, example_config

    doc = example_config()
    doc["T"] = 3.0  # 2 * 0.5 * 3^1.6 / Gamma(2.6) > 1
    spec = build_problem(doc).spec
    report = verify(spec, small_domain())
    assert report.rho > 1.0
    assert not report.verdicts["contraction"]["pass"]
    assert not report.overall_pass
    assert report.delta is None


def test_verify_scaled_field_raises_rho(example_spec):
    from fdvi.config import build_problem, example_config

    doc = example_config()
    doc["fuzzy"][0]["scale"] = "10*cos(y1)"
    spec = build_problem(doc).spec
    report = verify(spec, small_domain())
    assert report.rho > 1.0 and not report.overall_pass


def test_verify_report_is_deterministic(example_spec):
    dom = small_domain(y_samples=512)
    r1 = verify(example_spec, dom, claimed={"eta_Q": 7.85})
    r2 = verify(example_spec, dom, claimed={"eta_Q": 7.85})
    assert json.dumps(r1.as_dict(), sort_keys=True) == json.dumps(r2.as_dict(), sort_keys=True)


def test_report_as_dict_is_the_deep_copy_plus_the_derived_keys(example_problem):
    report = verify(example_problem.spec, example_problem.sampling, claimed=example_problem.claimed)
    norms = {name: row.norm for name, row in CONSTANTS.items()}
    expected = {**dataclasses.asdict(report), "expected_sup_norm_bound": report.delta, "norms": norms}
    assert json.dumps(report.as_dict()) == json.dumps(expected)
