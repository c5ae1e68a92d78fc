import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fdvi.errors import ArityError, EvalDomainError, EvalOverflowError, ExprSyntaxError, UnknownIdentifier
from fdvi.expr import _NEG, _SYNTAX, _TOKEN_RE
from fdvi.expr import _RULES as RULE_TABLE
from fdvi.expr import Apply, Const, Num, Var, evaluate, parse, to_source, value_and_gradient
from oracles import descent_parse, walk_evaluate, walk_value_and_gradient


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


def test_parse_rejects_a_negative_dimension():
    with pytest.raises(ValueError, match="nonnegative"):
        parse("1", -1)


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


# the exact text to_source prints; error messages quote it
@pytest.mark.parametrize("source, text", [
    ("-2^2", "-2.0 ^ 2.0"),
    ("(-2)^2", "(-2.0) ^ 2.0"),
    ("2^-3^2", "2.0 ^ -3.0 ^ 2.0"),
    ("2^(-3)^2", "2.0 ^ (-3.0) ^ 2.0"),
    ("2^3^2", "2.0 ^ 3.0 ^ 2.0"),
    ("(2^3)^2", "(2.0 ^ 3.0) ^ 2.0"),
    ("(t*y1)^(t/y1)", "(t * y1) ^ (t / y1)"),
    ("2-(3-4)", "2.0 - (3.0 - 4.0)"),
    ("2-3-4", "2.0 - 3.0 - 4.0"),
    ("16/(4/2)", "16.0 / (4.0 / 2.0)"),
    ("16/4/2", "16.0 / 4.0 / 2.0"),
    ("(2+3)*4", "(2.0 + 3.0) * 4.0"),
    ("-(t*y1)", "-(t * y1)"),
    ("(-t)*y1", "-t * y1"),
    ("2*-t", "2.0 * -t"),
    ("--t", "--t"),
    ("-t^-y1", "-t ^ -y1"),
    ("arctan(y1)", "atan(y1)"),
    ("min(t, max(y1, 0.5))", "min(t, max(y1, 0.5))"),
    ("cos(y1)*0.5 - sqrt(abs(t))/3", "cos(y1) * 0.5 - sqrt(abs(t)) / 3.0"),
    ("1e300*t", "1e+300 * t"),
    (".5e-3*y1", "0.0005 * y1"),
    ("e^pi", "e ^ pi"),
    ("y1+(t+y1)", "y1 + (t + y1)"),
    ("y1*(t/y1)", "y1 * (t / y1)"),
])
def test_printed_text(source, text):
    assert to_source(parse(source, 1).root) == text


@pytest.mark.parametrize("key", RULE_TABLE)
def test_every_operation_prints_and_reparses(key):
    t, y1 = Var("t", 0), Var("y1", 1)
    for operands in ((y1, Num(0.5)), (Apply("+", (t, y1)), Apply("^", (y1, t)))):
        node = Apply(key, operands[:RULE_TABLE[key].arity])
        assert parse(to_source(node), 1).root == node, to_source(node)


_LEAVES = [Num(0.0), Num(0.5), Num(2.0), Num(1e300), Num(5e-324), Const("pi"), Const("e"),
           Var("t", 0), Var("y1", 1), Var("y2", 2)]


def _random_tree(rng, depth):
    """A random tree over every _RULES key; its leaves are the kind the parser builds."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(_LEAVES)
    key = rng.choice(list(RULE_TABLE))
    return Apply(key, tuple(_random_tree(rng, depth - 1) for _ in range(RULE_TABLE[key].arity)))


def test_printed_trees_reparse_to_equal_trees():
    rng = random.Random(20261020)
    for _ in range(5000):
        tree = _random_tree(rng, 4)
        assert parse(to_source(tree), 2).root == tree, to_source(tree)


def test_token_operators_are_the_syntax_table_keys():
    for key in _SYNTAX.keys() - {_NEG}:
        assert [(m.lastgroup, m.group()) for m in _TOKEN_RE.finditer(key)] == [("op", key)]
    ops = {c for c in map(chr, range(sys.maxunicode + 1))
           if (m := _TOKEN_RE.fullmatch(c)) is not None and m.lastgroup == "op"}
    assert ops - set("(),") == _SYNTAX.keys() - {_NEG}


# grammar tokens, whitespace and characters that start no token; pieces run
# together when joined, so "y1" "e" reads as one name
_PIECES = ["0", "1", "2.5", ".5e-3", "1e309", "3.", "1e", "\u0663", "t", "y1", "y2", "y3", "y0", "y01",
           "pi", "e", "sin", "arctan", "min", "max", "neg", "u", "foo",
           "+", "-", "*", "/", "^", "(", ")", ",", "(", ")", "-",
           " ", "  ", "\t", "\n", "\u00a0", "$", "#", ".", "\u00e9", "!", "_"]


def _random_source(rng):
    """Random pieces run together, or a printed random tree with one character dropped, doubled or replaced."""
    if rng.random() < 0.5:
        return "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 10)))
    text = to_source(_random_tree(rng, 3))
    i = rng.randrange(len(text))
    return rng.choice([text, text[:i] + text[i + 1:], text[:i] + text[i] + text[i:],
                       text[:i] + rng.choice(_PIECES) + text[i + 1:]])


def _parsed(parser, source):
    """parser's tree for source, or the type and text of the error it raised."""
    try:
        return parser(source)
    except Exception as exc:  # every error counts, with its offset in the text
        return type(exc), str(exc)


def test_table_parser_matches_the_recursive_descent_parser():
    rng = random.Random(20261021)
    parsed = 0
    for _ in range(20000):
        source = _random_source(rng)
        tree = _parsed(lambda s: parse(s, 2).root, source)
        assert tree == _parsed(lambda s: descent_parse(s, 2), source), repr(source)
        parsed += not isinstance(tree, tuple)
    assert parsed > 2000  # trees are compared, not only errors


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
    with pytest.raises(ExprSyntaxError) as err:
        parse("y1 * 1.5e400 + 1", 1)  # a literal beyond the float range
    assert err.value.offset == 5
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


@pytest.mark.parametrize("source", ["1e300 * t", "1e300 * y1"])
def test_overflow_text_is_the_same_for_time_and_state(source):
    with pytest.raises(EvalOverflowError, match="^overflow encountered in scalar multiply in subexpression"):
        evaluate(parse(source, 1), 1e200, np.array([1e200]))


def test_scalar_state_is_a_domain_error():
    e = parse("y1", 1)
    for fn in (evaluate, value_and_gradient):
        with pytest.raises(EvalDomainError, match="state is a scalar, expression expects 1"):
            fn(e, 0.0, 1.0)
    assert evaluate(parse("2*t", 0), 0.5, 1.0) == 1.0  # an expression over no coordinates reads no state


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


# --- bit identity with the tree walkers ----------------------------------------

# every operator and function of the grammar; "neg" is unary minus
_OPERATIONS = ["+", "-", "*", "/", "^", "neg", "min", "max",
               "sin", "cos", "tan", "atan", "arctan", "exp", "log", "abs", "sqrt"]


def _spell(op, a, b):
    if op in ("+", "-", "*", "/", "^"):
        return f"({a} {op} {b})"
    if op == "neg":
        return f"-{a}"
    return f"{op}({a}, {b})" if op in ("min", "max") else f"{op}({a})"


def _grammar_expressions():
    """Expressions over y1, y2 built from every operation, constant and variable of the grammar."""
    leaves = st.sampled_from(["y1", "y2", "y1", "y2", "t", "pi", "e", "0", "1", "2", "0.5", "1.7", "1e300"])
    return st.recursive(leaves, lambda sub: st.builds(_spell, st.sampled_from(_OPERATIONS), sub, sub),
                        max_leaves=6)


# zeros, ties, signs and magnitudes that reach every domain check, kink and overflow
_COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.5, 0.5, 1e-320, 1e200, -1e300, 800.0]),
                    st.floats(-10.0, 10.0))


def _outcome(fn, e, t, y):
    """fn's result, or the type and text of the evaluation error it raised."""
    try:
        return fn(e, t, y), None
    except EvalDomainError as exc:  # EvalOverflowError too
        return None, (type(exc), str(exc))


def _bits(x):
    return type(x), np.shape(x), np.asarray(x).tobytes()


def _assert_same_as_the_tree_walkers(e, t, y):
    value, err = _outcome(evaluate, e, t, y)
    ref, ref_err = _outcome(walk_evaluate, e, t, y)
    assert err == ref_err
    if err is None:
        assert _bits(value) == _bits(ref)
    pair, err = _outcome(value_and_gradient, e, t, y)
    ref_pair, ref_err = _outcome(walk_value_and_gradient, e, t, y)
    assert err == ref_err
    if err is None:
        (value, grad), (ref, ref_grad) = pair, ref_pair
        assert _bits(value) == _bits(ref)
        assert grad.keys() == ref_grad.keys()
        assert all(_bits(grad[k]) == _bits(ref_grad[k]) for k in grad)


@seed(20240611)
@given(_grammar_expressions(), hnp.arrays(np.float64, 3, elements=_COORDS),
       hnp.arrays(np.float64, (3, 2), elements=_COORDS))
@settings(max_examples=250, deadline=None, database=None)
def test_compiled_rules_match_the_tree_walkers(source, ts, ys):
    # values, gradients and error messages, bit for bit, on a batch and on each of its rows
    e = parse(source, 2)
    _assert_same_as_the_tree_walkers(e, ts, ys)
    for t, y in zip(ts, ys):
        _assert_same_as_the_tree_walkers(e, t, y)


@pytest.mark.parametrize("source, t, y", [
    ("1e300 * t", 1e200, [0.0, 0.0]),  # numpy scalars name a "scalar multiply"
    ("t / 1e-300", 1e200, [0.0, 0.0]),
    ("-(y1 * y1) + exp(y2)", 0.0, [1e200, 800.0]),  # the first overflow in evaluation order
    ("exp(y1) - exp(y2)", 0.0, [[1.0, 800.0], [800.0, 1.0]]),
    ("min(y1, y2) + max(y2, 2*y1)", 0.0, [[0.0, 0.0], [1.0, 2.0]]),  # ties take the left
    ("max(sqrt(y1), y2)", 0.0, [0.0, 1.0]),  # the inf partial of the branch not taken stays out
    ("min(y2, sqrt(y1))", 0.0, [0.0, -1.0]),
    ("y1^0 + (y2 - 1)^0", 0.0, [0.0, 1.0]),
    ("y1^y2", 0.0, [[-2.0, 3.0], [2.0, 0.5]]),
    ("(y1 - 1)^-2", 0.0, [1.0, 0.0]),
    ("y1^0.5", 0.0, [-2.0, 0.0]),
    ("1/y1", 0.0, [[1e-320, 1.0]]),
    ("log(y1 - y2) + sqrt(y2)", 0.0, [[2.0, -1.0]]),
    ("1e300 * y1", 0.0, [1e200, 0.0]),  # a 1-D state's coordinate is a numpy scalar too
])
def test_compiled_rules_match_the_tree_walkers_at_edges(source, t, y):
    _assert_same_as_the_tree_walkers(parse(source, 2), t, np.array(y))


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


@pytest.mark.parametrize("source, reads", [
    ("cos(y1)", {"y1"}),
    ("0*t + y1", {"t", "y1"}),  # syntactic: a variable read with weight zero still counts
    ("pi", set()),
    ("exp(2*min(t, y2)) - e", {"t", "y2"}),
    ("y01 + y1^2", {"y1"}),  # one name per coordinate
])
def test_read_set_is_the_variables_in_the_syntax(source, reads):
    assert parse(source, 3).reads == reads
