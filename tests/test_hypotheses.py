import math

import numpy as np
import pytest

from fdvi.errors import AnchorNotFeasible, DomainError
from fdvi.expr import parse
from fdvi.fuzzy import FieldComponent, FuzzyBoxField, FuzzyIntervalNumber, fuzzy_metric
from fdvi.hypotheses import (
    SamplingDomain,
    _metric_over_pairs,
    check_coercivity,
    compute_delta,
    compute_eta_s,
    compute_rho,
    estimate_constants,
    estimate_field_lipschitz,
    verify,
)
from fdvi.special import gamma
from fdvi.vi import AffineOperator, BoxSet, VIInstance, solve_vi


def small_domain(seed=20260809, pairs=20_000, y_samples=1024):
    return SamplingDomain(np.array([-8.0]), np.array([8.0]), t_samples=16,
                          y_samples=y_samples, pair_samples=pairs, seed=seed)


# --- compute_rho -------------------------------------------------------------


def test_rho_example_value():
    assert compute_rho(0.5, 0.7, 1.6) == pytest.approx(0.3953, abs=5e-4)


def test_rho_zero_lipschitz():
    assert compute_rho(0.0, 5.0, 1.7) == 0.0


def test_rho_at_unit_order():
    # Gamma(2) = 1
    assert compute_rho(0.5, 1.0, 1.0) == pytest.approx(1.0, rel=1e-13)


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
    assert compute_eta_s(s, np.zeros(2), 3.0) == pytest.approx(1.0 / 3.0)


def test_eta_s_identity():
    s = AffineOperator(np.eye(2), np.zeros(2))
    assert compute_eta_s(s, np.zeros(2), 1.0) == pytest.approx(1.0)


def test_eta_s_requires_positive_mu():
    s = AffineOperator(np.zeros((2, 2)), np.zeros(2))
    with pytest.raises(DomainError):
        compute_eta_s(s, np.zeros(2), 0.0)


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
        eta = compute_eta_s(s, u0, s.mu)
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


def test_delta_requires_contraction():
    with pytest.raises(DomainError):
        compute_delta(0, 0, 0, 0, 0, 0, 1.0, 1.5, 1.0)


# --- coercivity ---------------------------------------------------------------


def test_coercivity_scaled_identity_on_orthant():
    s = AffineOperator(3.0 * np.eye(2), np.zeros(2))
    monotone, mu, liminf = check_coercivity(s, BoxSet.orthant(2), np.zeros(2), small_domain())
    assert monotone and mu == pytest.approx(3.0)
    assert liminf == pytest.approx(3.0, abs=1e-9)


def test_coercivity_zero_operator_fails():
    s = AffineOperator(np.zeros((2, 2)), np.zeros(2))
    monotone, mu, liminf = check_coercivity(s, BoxSet.orthant(2), np.zeros(2), small_domain())
    assert monotone and mu == pytest.approx(0.0)
    assert liminf <= 1e-12


def test_coercivity_rotation_monotone_but_not_coercive():
    rot = AffineOperator(np.array([[0.0, -1.0], [1.0, 0.0]]), np.zeros(2))
    monotone, mu, liminf = check_coercivity(rot, BoxSet.orthant(2), np.zeros(2), small_domain())
    assert monotone and mu == pytest.approx(0.0, abs=1e-12)
    assert abs(liminf) <= 1e-9


def test_coercivity_bounded_box_is_vacuous():
    s = AffineOperator(np.zeros((2, 2)), np.zeros(2))
    _, _, liminf = check_coercivity(s, BoxSet([0.0, 0.0], [1.0, 1.0]), np.zeros(2), small_domain())
    assert liminf == math.inf


def test_coercivity_anchor_must_be_feasible():
    s = AffineOperator(np.eye(2), np.zeros(2))
    with pytest.raises(AnchorNotFeasible):
        check_coercivity(s, BoxSet.orthant(2), np.array([-1.0, 0.0]), small_domain())


# --- estimate_constants --------------------------------------------------------


def test_constants_on_example(example_spec):
    consts = estimate_constants(example_spec, small_domain())
    assert 0.45 <= consts["L_F"] <= 0.5 + 1e-9
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
    consts = estimate_constants(spec_like, small_domain(pairs=2000, y_samples=256))
    assert consts["L_F"] == 0.0
    assert consts["p_sup"] == pytest.approx(0.25, abs=1e-12)


def test_metric_over_pairs_matches_scalar_fuzzy_metric():
    # The sampling pass and the polish objective must measure the same metric.
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
    batch = _metric_over_pairs(field, ts, y1s, y2s)
    scalar = [fuzzy_metric(field.at(t, a), field.at(t, b)) for t, a, b in zip(ts, y1s, y2s)]
    np.testing.assert_allclose(batch, scalar, rtol=1e-14, atol=1e-15)


def test_lipschitz_estimate_never_exceeds_true_constant(example_spec):
    # quotients of |cos| scaled by 0.5 can never exceed 0.5
    val = estimate_field_lipschitz(example_spec.field, [-8.0], [8.0], 0.7, pairs=5000, seed=1)
    assert val <= 0.5 + 1e-9
    assert val >= 0.45


def test_estimates_monotone_in_refinement(example_spec):
    # same seed, more samples: constants never decrease
    small = estimate_constants(example_spec, small_domain(pairs=5_000, y_samples=512))
    large = estimate_constants(example_spec, small_domain(pairs=10_000, y_samples=2048))
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
    report = verify(spec, small_domain(pairs=20_000))
    assert report.rho > 1.0 and not report.overall_pass


def test_verify_report_is_deterministic(example_spec):
    import json

    dom = small_domain(pairs=5_000, y_samples=512)
    r1 = verify(example_spec, dom, claimed={"eta_Q": 7.85})
    r2 = verify(example_spec, dom, claimed={"eta_Q": 7.85})
    assert json.dumps(r1.as_dict(), sort_keys=True) == json.dumps(r2.as_dict(), sort_keys=True)
