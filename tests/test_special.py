import math

import numpy as np
import pytest
from scipy.integrate import quad

from fdvi.errors import DomainError, PoleError
from fdvi.special import gamma
from oracles import kernel_moment


def test_gamma_at_one_and_two():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-12)
    assert gamma(2.0) == pytest.approx(1.0, rel=1e-12)


def test_gamma_against_quadrature_oracle():
    # Independent oracle: the defining integral of Gamma(2.6).
    oracle, err = quad(lambda tau: tau**1.6 * math.exp(-tau), 0.0, np.inf,
                       epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    assert gamma(2.6) == pytest.approx(oracle, rel=1e-10)
    assert gamma(2.6) == pytest.approx(1.4296245589, abs=1e-9)


def test_gamma_factorials():
    for n in range(13):
        assert gamma(n + 1) == pytest.approx(math.factorial(n), rel=1e-13)


def test_gamma_recurrence_property():
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.1, 20.0, size=1000)
    for x in xs:
        lhs = gamma(x + 1.0)
        assert abs(lhs - x * gamma(x)) / abs(lhs) <= 1e-12


def test_gamma_accuracy_over_range():
    for x in np.linspace(0.1, 30.0, 600):
        assert abs(gamma(x) - math.gamma(x)) / math.gamma(x) <= 1e-12


def test_gamma_reflection_negative_arguments():
    for x in (-0.5, -1.5, -2.3, 0.3):
        assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-11)


def test_gamma_is_exact_at_integers_and_finite_up_to_the_float_range():
    # math.gamma is exact at small integers; Gamma(171.5) ~ 9.5e307 still fits a double
    assert gamma(1.0) == 1.0
    assert gamma(2.0) == 1.0
    assert math.isfinite(gamma(171.5))


def test_gamma_poles():
    for x in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(PoleError):
            gamma(x)


def test_kernel_moment_full_interval_closed_form():
    for q in (1.1, 1.6, 2.0):
        for t in (0.35, 0.7):
            assert kernel_moment(q, t, 0.0, t, 0) == pytest.approx(t**q / q, rel=1e-14)


def test_kernel_moment_q2_reduces_to_plain_trapezoid_kernel():
    t = 0.9
    assert kernel_moment(2.0, t, 0.0, t, 0) == pytest.approx(t * t / 2.0, rel=1e-14)


def test_kernel_moment_first_moment_against_quadrature():
    v = kernel_moment(1.6, 0.7, 0.2, 0.5, 1)
    oracle, _ = quad(lambda tau: (0.7 - tau) ** 0.6 * tau, 0.2, 0.5,
                     epsabs=1e-15, epsrel=1e-15)
    assert v == pytest.approx(oracle, abs=1e-12)


def test_kernel_moment_additivity():
    rng = np.random.default_rng(11)
    for _ in range(300):
        q = rng.uniform(1.0, 2.0)
        t = rng.uniform(0.2, 3.0)
        a, b, c = np.sort(rng.uniform(0.0, t, size=3))
        for k in (0, 1):
            whole = kernel_moment(q, t, a, c, k)
            split = kernel_moment(q, t, a, b, k) + kernel_moment(q, t, b, c, k)
            assert abs(whole - split) <= 1e-12 * max(1.0, abs(whole))


def test_kernel_moment_nonnegative():
    rng = np.random.default_rng(13)
    for _ in range(200):
        q = rng.uniform(1.0, 2.0)
        t = rng.uniform(0.1, 2.0)
        a, b = np.sort(rng.uniform(0.0, t, size=2))
        assert kernel_moment(q, t, a, b, 0) >= 0.0
        assert kernel_moment(q, t, a, b, 1) >= 0.0


def test_kernel_moment_ordering_violations():
    with pytest.raises(DomainError):
        kernel_moment(1.6, 0.5, 0.2, 0.7, 0)  # b > t
    with pytest.raises(DomainError):
        kernel_moment(1.6, 0.5, 0.4, 0.2, 0)  # a > b
    with pytest.raises(DomainError):
        kernel_moment(1.6, 0.5, -0.1, 0.2, 0)  # a < 0
    with pytest.raises(DomainError):
        kernel_moment(2.5, 0.5, 0.0, 0.5, 0)  # q out of range
    with pytest.raises(DomainError):
        kernel_moment(1.6, 0.5, 0.0, 0.5, 2)  # unsupported k
