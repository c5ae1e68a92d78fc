import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fdvi.errors import ArityError, EvalDomainError, EvalOverflowError, ExprSyntaxError, UnknownIdentifier
from fdvi.expr import evaluate, parse, to_source, value_and_gradient


def ev(source, t=0.0, y=0.0, n=1):
    return evaluate(parse(source, n), t, np.atleast_1d(y))


def test_arctan_plus_two_pi():
    assert ev("atan(y1) + 2*pi") == pytest.approx(2.0 * math.pi, rel=1e-15)
    # paper-style spelling accepted too
    assert ev("arctan(y1) + 2*pi") == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_sin_at_zero():
    assert ev("1.2*sin(t)", t=0.0) == 0.0


def test_exponential_value():
    # oracle: the math module, an evaluator independent of this parser
    assert ev("-1.4*exp(-t)", t=0.7) == pytest.approx(-1.4 * math.exp(-0.7), rel=1e-15)


def test_cosine_scaling():
    assert ev("0.9*cos(y1)", y=math.pi / 3) == pytest.approx(0.45, rel=1e-13)


def test_constant_expression():
    assert ev("3", t=123.0, y=-4.0) == 3.0


def test_precedence():
    assert ev("2+3*4") == 14.0
    assert ev("2^3^2") == 512.0        # right associative
    assert ev("-2^2") == -4.0          # ^ binds tighter than unary minus
    assert ev("2^-3") == 0.125         # signed exponent
    assert ev("(2+3)*4") == 20.0
    assert ev("2-3-4") == -5.0
    assert ev("16/4/2") == 2.0


def test_min_max_two_argument_functions():
    assert ev("min(2, 5)") == 2.0
    assert ev("max(2, 5)") == 5.0
    assert ev("max(min(t, 1), 0)", t=7.0) == 1.0


def test_round_trip_pretty_print():
    sources = [
        "atan(y1) + 2*pi",
        "1.2*sin(t)",
        "-1.4*exp(-t)",
        "2^3^2",
        "-2^2",
        "(2+3)*4",
        "2-3-4",
        "16/4/2",
        "min(t, max(y1, 0.5))",
        "-(t + y1)",
        "(2^3)^2",
        "cos(y1)*0.5 - sqrt(abs(t))/3",
    ]
    for src in sources:
        ast = parse(src, 1)
        again = parse(to_source(ast.root), 1)
        assert again.root == ast.root, src


def test_vectorized_evaluation_matches_scalar():
    e = parse("0.9*cos(y1) + t^2", 1)
    ts = np.linspace(0.0, 1.0, 7)
    ys = np.linspace(-1.0, 1.0, 7)[:, None]
    batch = evaluate(e, ts, ys)
    for i in range(7):
        assert batch[i] == evaluate(e, ts[i], ys[i])


def test_purity_bit_identical():
    e = parse("sin(t)*cos(y1) - exp(-t)/(1 + y1^2)", 1)
    a = evaluate(e, 0.37, np.array([0.21]))
    b = evaluate(e, 0.37, np.array([0.21]))
    assert a == b


def test_syntax_error_carries_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("1 + * 2", 1)
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        parse("sin(t", 1)
    with pytest.raises(ExprSyntaxError):
        parse("", 1)


def test_unknown_identifiers():
    with pytest.raises(UnknownIdentifier):
        parse("y2 + 1", 1)  # index beyond the problem dimension
    with pytest.raises(UnknownIdentifier):
        parse("bogus + 1", 1)
    with pytest.raises(UnknownIdentifier):
        parse("frob(2)", 1)
    # y2 is fine when n = 2
    assert evaluate(parse("y2", 2), 0.0, np.array([1.0, 5.0])) == 5.0


def test_arity_errors():
    with pytest.raises(ArityError):
        parse("sin(1, 2)", 1)
    with pytest.raises(ArityError):
        parse("min(1)", 1)


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        ev("1/y1", y=0.0)
    with pytest.raises(EvalDomainError):
        ev("log(t)", t=0.0)
    with pytest.raises(EvalDomainError):
        ev("sqrt(y1)", y=-1.0)
    with pytest.raises(EvalDomainError):
        ev("y1^0.5", y=-2.0)
    with pytest.raises(EvalDomainError):
        ev("(t-1)^-2", t=1.0)
    with pytest.raises(EvalDomainError):
        ev("exp(t)", t=1e6)  # overflow is an error, not inf
    with pytest.raises(EvalOverflowError, match=r"y1 \* y1"):
        ev("y1*y1", y=1e200)
    with pytest.raises(EvalOverflowError, match="1.0 / y1"):
        ev("1/y1", y=1e-320)  # nonzero divisor, quotient overflows


def test_domain_checks_cover_vectorized_inputs():
    e = parse("1/y1", 1)
    with pytest.raises(EvalDomainError):
        evaluate(e, np.zeros(3), np.array([[1.0], [0.0], [2.0]]))


# --- finite-or-raise property ----------------------------------------------


def _expressions(binops, funcs):
    leaves = st.one_of(st.sampled_from(["t", "y1", "y2"]), st.floats(0.0, 1e300).map(repr))
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.tuples(sub, st.sampled_from(binops), sub).map(lambda p: f"({p[0]} {p[1]} {p[2]})"),
            st.tuples(st.sampled_from(funcs), sub).map(lambda p: f"{p[0]}({p[1]})"),
            sub.map(lambda s: f"(-{s})"),
        ),
        max_leaves=12,
    )


_HUGE = st.floats(-1e300, 1e300)
_STATES = hnp.arrays(np.float64, (4, 2), elements=_HUGE)


@given(_expressions(["+", "-", "*", "/", "^"], ["exp", "log", "sqrt"]), _HUGE, _STATES)
@settings(max_examples=300, deadline=None)
def test_evaluate_is_finite_or_raises_domain_error(source, t, ys):
    try:
        value = evaluate(parse(source, 2), t, ys)
    except EvalDomainError:
        return
    assert np.all(np.isfinite(value))


@given(_expressions(["+", "-", "*"], ["exp"]), _HUGE, _STATES)
@settings(max_examples=300, deadline=None)
def test_overflow_raises_eval_overflow_error(source, t, ys):
    # Without / ^ log sqrt nothing can leave the domain, so a non-finite
    # value can only come from overflow.
    try:
        value = evaluate(parse(source, 2), t, ys)
    except EvalOverflowError:
        return
    assert np.all(np.isfinite(value))


# --- forward-mode derivatives -------------------------------------------------

# one expression per derivative rule, each smooth near the test points
_RULES = {
    "+": "y1*y2 + sin(y2)",
    "-": "cos(y1) - y1*y2",
    "*": "sin(y1)*exp(y2)",
    "/": "sin(y1)/(2 + cos(y2))",
    "^ (constant exponent)": "(2 + cos(y1 - y2))^2.5",
    "^ (exponent reads y)": "(2 + cos(y1))^(y2/3)",
    "neg": "-(y1*y2)",
    "sin": "sin(y1*y2)",
    "cos": "cos(y1 - y2)",
    "tan": "tan(0.3*y1 + 0.1*y2)",
    "atan": "atan(y1*y2)",
    "exp": "exp(0.5*y1 - y2)",
    "log": "log(2 + sin(y1*y2))",
    "abs": "abs(y1 - y2)",
    "sqrt": "sqrt(3 + y1*y2)",
    "min": "min(y1, sin(y2))",
    "max": "max(y1*y2, cos(y1))",
}


@pytest.mark.parametrize("rule", _RULES)
def test_gradient_rules_match_central_differences(rule):
    e = parse(_RULES[rule] + " + 0.5*t*y1", 2)
    rng = np.random.default_rng(7)
    ts = rng.uniform(0.0, 1.0, 200)
    ys = rng.uniform(-1.5, 1.5, (200, 2))
    value, grad = value_and_gradient(e, ts, ys)
    np.testing.assert_array_equal(value, evaluate(e, ts, ys))
    assert set(grad) == {0, 1}
    h = 1e-6
    for k in (0, 1):
        step = np.zeros(2)
        step[k] = h
        fd = (evaluate(e, ts, ys + step) - evaluate(e, ts, ys - step)) / (2 * h)
        # kinks of abs/min/max are crossed by few rows; compare away from them
        smooth = np.abs(fd - np.broadcast_to(grad[k], fd.shape)) <= 1e-6 * (1 + np.abs(fd))
        assert np.mean(smooth) >= (0.97 if rule in ("abs", "min", "max") else 1.0), rule


def test_gradient_at_kinks_takes_one_branch():
    y = np.array([[0.0, 0.0]])
    assert value_and_gradient(parse("abs(y1)", 2), 0.0, y)[1][0] == 0.0  # sign(0) = 0
    # a tie takes the left argument
    assert value_and_gradient(parse("min(2*y1, y2)", 2), 0.0, y)[1] == {0: 2.0, 1: 0.0}
    assert value_and_gradient(parse("max(y2, 3*y1)", 2), 0.0, y)[1] == {0: 0.0, 1: 1.0}


def test_power_rule_with_an_exponent_free_of_y():
    # log(-2) would be nan; a^b with b free of y needs no log(a)
    _, grad = value_and_gradient(parse("y1^3", 1), 0.0, np.array([-2.0]))
    assert grad == {0: 12.0}
    _, grad = value_and_gradient(parse("y1^0", 1), 0.0, np.array([0.0]))
    assert grad == {0: 0.0}


def test_gradient_domain_errors_match_evaluate():
    for source, y in (("sqrt(y1)", -1.0), ("log(y1)", 0.0), ("1/y1", 0.0), ("y1^0.5", -2.0)):
        with pytest.raises(EvalDomainError):
            value_and_gradient(parse(source, 1), 0.0, np.array([y]))
    with pytest.raises(EvalOverflowError, match=r"y1 \* y1"):
        value_and_gradient(parse("y1*y1", 1), 0.0, np.array([1e200]))


def test_nonfinite_partial_where_the_derivative_does_not_exist():
    value, grad = value_and_gradient(parse("sqrt(y1) + y1^0.5", 1), 0.0, np.array([0.0]))
    assert value == 0.0 and grad[0] == math.inf


def test_gradient_carries_only_the_coordinates_read():
    e = parse("y2*y5 + sin(y5) + t*exp(y7) + 3", 8)
    _, grad = value_and_gradient(e, np.zeros(4), np.ones((4, 8)))
    assert sorted(grad) == [1, 4, 6]
    assert value_and_gradient(parse("t + pi", 8), 0.5, np.ones(8))[1] == {}
    # an affine coordinate keeps a scalar partial, whatever the number of rows
    assert np.ndim(value_and_gradient(parse("2*y3 - y1", 8), np.zeros(5), np.ones((5, 8)))[1][2]) == 0
