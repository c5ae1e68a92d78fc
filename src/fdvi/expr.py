"""Small arithmetic expression language for problem configs.

The grammar is stated by one syntax table, _SYNTAX: the binary operators
+ - * / ^ and unary minus, each with its binding strength and the level at
which it reads each operand (standard precedence; ^ right-associative and
binding tighter than unary minus).  Operands are numbers, pi, e, t, y<k>,
calls NAME '(' expr [',' expr] ')' and parenthesised expressions.  The
precedence-climbing parser and the printer read that table, and the
tokenizer's operator class spells exactly its keys.

Variables are t and y1..yn where n is fixed at parse time; a literal
beyond the float range is a syntax error.

The tree has three leaves (Num, Const, Var) and one operation node,
Apply(key, args), whose key is its entry in one table, _RULES: the
operator symbol, the function name, or "u-" for unary minus.  The table
holds each operation's arity (the parser reads it), numpy implementation,
domain check and derivative rule (the partial in each argument, from the
arguments' values and the node's own value).  Every walker reads node.args
(a leaf has none) and the table entry, never an operation's class;
_SYNTAX is keyed like the table.  An Expression compiles its tree
once, at its first evaluation, into nested closures over the table
(Expression.compiled).  Evaluation works on scalars or numpy arrays (t of
shape (k,), y of shape (k, n)) and raises instead of propagating NaN/inf:
it runs under one numpy errstate that turns overflow into
EvalOverflowError.

value_and_gradient walks the tree in forward mode over the same table:
next to each value it carries the y-gradient as a sparse map {coordinate:
partial} over the coordinates the subexpression reads.  The verifier's
field slope (FuzzyBoxField.slope) is built on it.

Expression.reads is the set of variables an expression reads, from its
syntax alone; the verifier samples each constant only along the axes
(time, state) that its expressions read.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import ArityError, EvalDomainError, EvalOverflowError, ExprSyntaxError, UnknownIdentifier

# --- AST -----------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float
    args = ()  # a leaf; a class attribute, not a field


@dataclass(frozen=True)
class Const:
    name: str  # "pi" or "e"
    args = ()


@dataclass(frozen=True)
class Var:
    name: str   # "t" or "y<k>"
    index: int  # 0 for t, 1-based coordinate otherwise
    args = ()


@dataclass(frozen=True)
class Apply:
    key: str     # the operation's _RULES key: operator symbol, function name, or "u-" (_NEG)
    args: tuple  # the operands, in order


Node = Num | Const | Var | Apply

_NEG = "u-"  # unary minus; not an identifier, so no call can name it


class _Syntax(NamedTuple):
    binds: int  # the binding strength: a node binds at it, a leaf or call at _ATOM
    operands: tuple  # the level each operand is read at, in order


# The grammar: operator syntax, keyed like _RULES; any other key is a call.
# An operand is read at its level, so it takes only operators that bind at
# least as tightly (parser), and one that binds more loosely is parenthesised
# (printer).  + - * / are left-associative: their right operand is read one
# level up.  Unary minus reads a unary; ^ reads an atom as its base and a
# signed exponent, so it is right-associative and binds tighter than a sign.
_SUM, _PRODUCT, _UNARY, _POWER, _ATOM = range(1, 6)
_SYNTAX = {
    "+": _Syntax(_SUM, (_SUM, _PRODUCT)),
    "-": _Syntax(_SUM, (_SUM, _PRODUCT)),
    "*": _Syntax(_PRODUCT, (_PRODUCT, _UNARY)),
    "/": _Syntax(_PRODUCT, (_PRODUCT, _UNARY)),
    _NEG: _Syntax(_UNARY, (_UNARY,)),
    "^": _Syntax(_POWER, (_ATOM, _UNARY)),
}
_CONSTS = {"pi": np.float64(math.pi), "e": np.float64(math.e)}
_ALIASES = {"arctan": "atan"}


@dataclass(frozen=True)
class Expression:
    """A parsed expression over t and y1..yn."""

    root: Node
    nvars: int
    source: str

    @cached_property
    def reads(self) -> frozenset:
        """The names of the variables the expression reads ("t", "y1", ...), from its syntax.

        A variable counts wherever it appears, so 0*t reads t.
        """
        out, stack = set(), [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, Var):
                out.add(f"y{node.index}" if node.index else "t")  # y01 reads y1
            stack.extend(node.args)
        return frozenset(out)

    @cached_property
    def compiled(self):
        """The expression as one closure (t, y) -> value, built at its first evaluation."""
        return _compile(self.root)


# --- Tokenizer -----------------------------------------------------------

# Whitespace matches no group, so finditer skips it; any other character
# that starts no token is the "bad" one.
_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
    r"|(?P<bad>\S)"
)


class _Token(NamedTuple):
    kind: str  # num | name | op | end
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        if m.lastgroup == "bad":
            raise ExprSyntaxError(m.start(), "a number, name or operator", m.group())
        tokens.append(_Token(m.lastgroup, m.group(), m.start()))
    tokens.append(_Token("end", "", len(source)))
    return tokens


# --- Parser --------------------------------------------------------------


class _Parser:
    def __init__(self, source: str, nvars: int):
        self.source = source
        self.nvars = nvars
        self.tokens = _tokenize(source)
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        if self.cur.text == op:  # only an op token spells an operator
            self.advance()
            return
        raise ExprSyntaxError(self.cur.pos, repr(op), self.cur.text or "end of input")

    def parse(self) -> Node:
        node = self.read(_SUM)
        if self.cur.kind != "end":
            raise ExprSyntaxError(self.cur.pos, "end of input", self.cur.text)
        return node

    def read(self, level: int) -> Node:
        """The longest expression at the cursor that binds at least as tightly as level.

        Each operator takes the tree read so far as its left operand.  The
        right operands' levels make that an atom wherever a ^ can follow.
        """
        if self.cur.text == "-" and _SYNTAX[_NEG].binds >= level:
            self.advance()
            node = Apply(_NEG, (self.read(_SYNTAX[_NEG].operands[0]),))
        else:
            node = self.primary()
        while self.cur.text in _SYNTAX and _SYNTAX[self.cur.text].binds >= level:
            key = self.advance().text
            node = Apply(key, (node, self.read(_SYNTAX[key].operands[1])))
        return node

    def primary(self) -> Node:
        tok = self.cur
        if tok.kind == "num":
            self.advance()
            value = float(tok.text)
            if math.isinf(value):  # Num(inf) would make evaluate return inf
                raise ExprSyntaxError(tok.pos, "a number within the float range", tok.text)
            return Num(value)
        if tok.kind == "name":
            self.advance()
            name = _ALIASES.get(tok.text, tok.text)
            if self.cur.text == "(":
                if name not in _RULES:
                    raise UnknownIdentifier(tok.text, tok.pos, "not a known function")
                arity = _RULES[name].arity
                self.advance()
                args = [self.read(_SUM)]
                while self.cur.text == ",":
                    self.advance()
                    args.append(self.read(_SUM))
                self.expect_op(")")
                if len(args) != arity:
                    raise ArityError(name, arity, len(args), tok.pos)
                return Apply(name, tuple(args))
            if name in _CONSTS:
                return Const(name)
            if name == "t":
                return Var("t", 0)
            m = re.fullmatch(r"y(\d+)", name)
            if m:
                k = int(m.group(1))
                if not 1 <= k <= self.nvars:
                    raise UnknownIdentifier(
                        tok.text, tok.pos, f"state has coordinates y1..y{self.nvars}"
                    )
                return Var(name, k)
            if name in _RULES:
                raise ExprSyntaxError(self.cur.pos, f"'(' after function {name!r}", self.cur.text)
            raise UnknownIdentifier(tok.text, tok.pos)
        if tok.text == "(":
            self.advance()
            node = self.read(_SUM)
            self.expect_op(")")
            return node
        raise ExprSyntaxError(tok.pos, "a number, name or '('", tok.text or "end of input")


def parse(source: str, n: int) -> Expression:
    """Parse ``source`` as an expression over t and y1..yn."""
    if n < 0:
        raise ValueError("dimension n must be nonnegative")
    root = _Parser(source, n).parse()
    return Expression(root, n, source)


# --- Evaluation ----------------------------------------------------------
#
# A gradient is a dict {0-based y coordinate: partial derivative}, holding
# exactly the coordinates the subexpression reads, so a row costs work in the
# number of coordinates read, not in n.  A partial broadcasts against the
# value; the partial of y_k itself is the scalar 1.

_ONE = np.float64(1.0)


class _Rule(NamedTuple):
    arity: int
    impl: Callable  # the value from the arguments' values
    domain: Callable | None  # the arguments' values -> the violation's text, or None inside the domain
    grad: Callable  # (arguments' values, their gradients, the node's value) -> the node's gradient


def _chain(*partials):
    """The chain rule: sum of partials[i](*args, value) * grads[i] over the arguments i that read y."""
    def grad(args, grads, value):
        out: dict = {}
        for partial_i, da in zip(partials, grads):
            if da:
                coef = partial_i(*args, value)
                for k, g in da.items():
                    term = g if coef is _ONE else coef * g
                    out[k] = out[k] + term if k in out else term
        return out
    return grad


def _select(take_left):
    """min/max: every partial is the taken argument's, row by row, so a partial of the other stays out."""
    def grad(args, grads, value):
        (a, b), (da, db) = args, grads
        left = take_left(a, b)
        return {k: np.where(left, da.get(k, 0.0), db.get(k, 0.0)) for k in da.keys() | db.keys()}
    return grad


def _power_domain(a, b):
    if np.any((a < 0.0) & (b != np.floor(b))):
        return "negative base with non-integer exponent"
    if np.any((a == 0.0) & (b < 0.0)):
        return "zero base with negative exponent"
    return None


def _power_base_partial(a, b, value):
    coef = b * np.power(a, b - 1.0)
    if np.any(b == 0.0):  # a^0 is constant, also at a = 0
        coef = np.where(b == 0.0, 0.0, coef)
    return coef


# Operator symbol or function name -> rule.  The parser reads function
# arities here; names are identifiers, so they never reach an operator.
# + - * / use the operator module: numpy names an overflow of scalars
# "... in scalar multiply", and that text reaches the user.
_RULES = {
    "+": _Rule(2, operator.add, None, _chain(lambda a, b, v: _ONE, lambda a, b, v: _ONE)),
    "-": _Rule(2, operator.sub, None, _chain(lambda a, b, v: _ONE, lambda a, b, v: -_ONE)),
    "*": _Rule(2, operator.mul, None, _chain(lambda a, b, v: b, lambda a, b, v: a)),
    "/": _Rule(2, operator.truediv, lambda a, b: "division by zero" if np.any(np.asarray(b) == 0.0) else None,
               _chain(lambda a, b, v: 1.0 / b, lambda a, b, v: -v / b)),
    # d(a^b) = b a^(b-1) da + a^b log(a) db; the log term only when b reads y
    "^": _Rule(2, np.power, _power_domain, _chain(_power_base_partial, lambda a, b, v: v * np.log(a))),
    _NEG: _Rule(1, operator.neg, None, _chain(lambda a, v: -_ONE)),
    "sin": _Rule(1, np.sin, None, _chain(lambda a, v: np.cos(a))),
    "cos": _Rule(1, np.cos, None, _chain(lambda a, v: -np.sin(a))),
    "tan": _Rule(1, np.tan, None, _chain(lambda a, v: 1.0 + v * v)),
    "atan": _Rule(1, np.arctan, None, _chain(lambda a, v: 1.0 / (1.0 + a * a))),
    "exp": _Rule(1, np.exp, None, _chain(lambda a, v: v)),
    "log": _Rule(1, np.log, lambda a: "log of a nonpositive value" if np.any(np.asarray(a) <= 0.0) else None,
                 _chain(lambda a, v: 1.0 / a)),
    "abs": _Rule(1, np.abs, None, _chain(lambda a, v: np.sign(a))),  # sign(0) = 0
    "sqrt": _Rule(1, np.sqrt, lambda a: "sqrt of a negative value" if np.any(np.asarray(a) < 0.0) else None,
                  _chain(lambda a, v: 0.5 / v)),
    "min": _Rule(2, np.minimum, None, _select(operator.le)),  # ties take the left
    "max": _Rule(2, np.maximum, None, _select(operator.ge)),
}


def _apply(rule: _Rule, node: Apply, *args):
    """rule's value at args; a domain violation raises EvalDomainError naming node."""
    if rule.domain is not None:
        violation = rule.domain(*args)
        if violation:
            raise EvalDomainError(to_source(node), violation)
    return rule.impl(*args)


def _compile(node: Node):
    """node as a closure (t, y) -> value, calling the table's implementations and domain checks."""
    if not node.args:
        if isinstance(node, Var):
            k = node.index - 1
            # [()] reads a 1-D state's coordinate as a numpy scalar, as _walk reads a 0-d t
            return (lambda t, y: y[..., k][()]) if k >= 0 else (lambda t, y: t)
        # numpy scalars, so arithmetic on constants trips the errstate too
        value = _CONSTS[node.name] if isinstance(node, Const) else np.float64(node.value)
        return lambda t, y: value
    rule = _RULES[node.key]
    run = rule.impl if rule.domain is None else partial(_apply, rule, node)
    if len(node.args) == 1:
        a = _compile(node.args[0])
        return lambda t, y: run(a(t, y))
    a, b = map(_compile, node.args)
    return lambda t, y: run(a(t, y), b(t, y))


def _dv(node: Node, t, y):
    """(value, gradient) of node at (t, y) in forward mode; values check their domain as evaluate's do."""
    if not node.args:
        if isinstance(node, Var) and node.index > 0:
            return y[..., node.index - 1][()], {node.index - 1: _ONE}
        return _compile(node)(t, y), {}
    rule = _RULES[node.key]
    args, grads = zip(*(_dv(arg, t, y) for arg in node.args))
    value = _apply(rule, node, *args)
    if not any(grads):
        return value, {}
    with np.errstate(all="ignore"):  # a partial may be inf or nan where the value is finite
        return value, rule.grad(args, grads, value)


def _nonfinite_site(node: Node, t, y) -> Node | None:
    """The innermost subexpression whose value is not finite, if any."""
    for child in node.args:
        site = _nonfinite_site(child, t, y)
        if site is not None:
            return site
    return None if np.all(np.isfinite(_compile(node)(t, y))) else node


def _walk(run, e: Expression, t, y):
    """run(t, y) on validated inputs, with value overflow raised as EvalOverflowError."""
    y = np.asarray(y, dtype=float)
    if e.nvars > 0 and (y.ndim == 0 or y.shape[-1] != e.nvars):
        got = f"has {y.shape[-1]} coordinates" if y.ndim else "is a scalar"
        raise EvalDomainError(e.source, f"state {got}, expression expects {e.nvars}")
    t = np.asarray(t, dtype=float)[()]  # a 0-d t becomes a numpy scalar
    try:
        with np.errstate(all="raise", under="ignore"):
            return run(t, y)
    except FloatingPointError as exc:
        # Only the failing call pays for locating the subexpression.
        with np.errstate(all="ignore"):
            site = _nonfinite_site(e.root, t, y) or e.root
        raise EvalOverflowError(to_source(site), str(exc)) from None


def evaluate(e: Expression, t, y):
    """Evaluate ``e`` at time t and state y.

    t may be a scalar or an array of shape (k,); y a vector of shape (n,)
    or an array of shape (k, n).  The result broadcasts accordingly and
    is always finite: domain violations raise EvalDomainError, and a
    finite input whose value overflows raises EvalOverflowError naming
    the innermost offending subexpression.
    """
    return _walk(e.compiled, e, t, y)


def value_and_gradient(e: Expression, t, y):
    """``e``'s value and its gradient in y at (t, y), by forward-mode derivatives.

    The value is evaluate's, and raises as evaluate does.  The gradient is a
    dict {0-based coordinate k: d e / d y_(k+1)} over exactly the
    coordinates e reads, so its keys are e's coordinate set.  Each partial
    broadcasts against the value (a coordinate read affinely has a scalar
    partial).  At a kink, abs, min and max take one branch: sign(0) = 0,
    and a tie takes the left argument.  A partial may be inf or nan where
    the derivative does not exist, e.g. sqrt or a fractional power at 0.
    """
    return _walk(partial(_dv, e.root), e, t, y)


# --- Pretty printer ------------------------------------------------------


def _binds(node: Node) -> int:
    return _SYNTAX[node.key].binds if node.args and node.key in _SYNTAX else _ATOM


def to_source(node: Node) -> str:
    """Render an AST back to parseable text that reparses to an equal tree.

    An operand is parenthesised exactly when it binds more loosely than the
    level its operator reads it at.
    """
    if isinstance(node, Num):
        return repr(node.value)
    if not node.args:
        return node.name
    parts = [to_source(a) for a in node.args]
    if node.key not in _SYNTAX:
        return f"{node.key}({', '.join(parts)})"
    levels = _SYNTAX[node.key].operands
    parts = [f"({s})" if _binds(a) < level else s for a, s, level in zip(node.args, parts, levels)]
    return f"-{parts[0]}" if node.key == _NEG else f"{parts[0]} {node.key} {parts[1]}"
