"""Independent reference forms of what fdvi computes on whole grids.

The solver and the verifier work on whole grids (FuzzyBoxField.levels and
level_arrays, the lag weights of fdvi.fractional); these pointwise forms
are the tests' oracles for them: the fuzzy field and the grid sup norm at
one point, and the product-trapezoid fractional integral at one node built
from exact kernel moments.

fdvi.expr compiles each expression from one rule table; the tree walkers
near the end of this file are its reference: one if-chain over the node's
kind and operation for values and one for forward-mode gradients, with the
operators' value and derivative rules written out separately.  Both must
agree bit for bit, errors and their messages included.  The recursive-descent
parser at the very end is the reference for fdvi.expr's table-driven parser.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from fdvi.errors import ArityError, DomainError, EvalDomainError, EvalOverflowError, ExprSyntaxError, UnknownIdentifier
from fdvi.expr import Apply, Const, Num, Var, evaluate, to_source
from fdvi.fuzzy import FuzzyBox, FuzzyIntervalNumber
from fdvi.special import gamma


def scaled(w: FuzzyIntervalNumber, scale: float, shift: float) -> FuzzyIntervalNumber:
    """Affine image shift + scale * w (endpoints re-sorted for scale < 0)."""
    return FuzzyIntervalNumber(tuple(sorted(shift + scale * p for p in w.params)))


def field_at(field, t: float, y) -> FuzzyBox:
    """The fuzzy value of the field at one point (t, y)."""
    y = np.asarray(y, dtype=float)
    return FuzzyBox(scaled(comp.base, float(evaluate(comp.scale, t, y)), float(evaluate(comp.offset, t, y)))
                    for comp in field.components)


def field_level(field, t: float, y, alpha: float):
    """The field's alpha-level box at one point (t, y)."""
    return field_at(field, t, y).level(alpha)


def sup_norm2(f) -> float:
    """Max over the nodes of a grid function of the Euclidean norm."""
    return float(np.max(np.linalg.norm(f.values, axis=1)))


def kernel_moment(q: float, t, a, b, k: int):
    """Exact value of the moment integral over [a, b] of (t-tau)^(q-1) * tau^k.

    Requires 0 < q <= 2, 0 <= a <= b <= t and k in {0, 1}, from the
    closed-form antiderivatives.  Accepts scalars or broadcastable arrays
    for t, a, b.
    """
    if not 0.0 < q <= 2.0:
        raise DomainError(f"kernel order q must lie in (0, 2], got {q}")
    if k not in (0, 1):
        raise DomainError(f"moment degree k must be 0 or 1, got {k}")
    t = np.asarray(t, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a < 0.0) or np.any(b < a) or np.any(t < b):
        raise DomainError("kernel_moment requires 0 <= a <= b <= t")
    s1 = t - a
    s0 = t - b
    m0 = (s1**q - s0**q) / q
    if k == 0:
        out = m0
    else:
        out = t * m0 - (s1 ** (q + 1.0) - s0 ** (q + 1.0)) / (q + 1.0)
    if out.ndim == 0:
        return float(out)
    return out


def frac_integral_moments(q: float, phi, i: int) -> np.ndarray:
    """The product-trapezoid I^q phi at node i, from each panel's exact kernel moments.

    Each panel [t_j, t_{j+1}] contributes its endpoint values weighted by the
    kernel integrated against the two hat functions, (t_{j+1} m0 - m1) / h
    and (m1 - t_j m0) / h; the same rule as fdvi.fractional, computed from
    the absolute node positions rather than the lag weights.
    """
    grid = phi.grid
    if i == 0:
        return np.zeros(phi.dim)
    t = grid.nodes[i]
    left = grid.nodes[:i]
    right = grid.nodes[1 : i + 1]
    m0 = np.asarray(kernel_moment(q, t, left, right, 0))
    m1 = np.asarray(kernel_moment(q, t, left, right, 1))
    wl = (right * m0 - m1) / grid.h  # weight of the left endpoint of each panel
    wr = (m1 - left * m0) / grid.h  # weight of the right endpoint
    return (wl @ phi.values[:i] + wr @ phi.values[1 : i + 1]) / gamma(q)


# --- tree-walking expression evaluator ----------------------------------------

_CONSTS = {"pi": np.float64(math.pi), "e": np.float64(math.e)}

# name -> (arity, numpy implementation)
_FUNCTIONS = {
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "tan": (1, np.tan),
    "atan": (1, np.arctan),
    "exp": (1, np.exp),
    "log": (1, np.log),
    "abs": (1, np.abs),
    "sqrt": (1, np.sqrt),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}


def _binop(node: Apply, a, b):
    """The value of node from its operands' values; domain violations raise EvalDomainError."""
    if node.key == "+":
        return a + b
    if node.key == "-":
        return a - b
    if node.key == "*":
        return a * b
    if node.key == "/":
        if np.any(np.asarray(b) == 0.0):
            raise EvalDomainError(to_source(node), "division by zero")
        return a / b
    # power
    if np.any((a < 0.0) & (b != np.floor(b))):
        raise EvalDomainError(to_source(node), "negative base with non-integer exponent")
    if np.any((a == 0.0) & (b < 0.0)):
        raise EvalDomainError(to_source(node), "zero base with negative exponent")
    return np.power(a, b)


def _call(node: Apply, args):
    """The value of node from its arguments' values; domain violations raise EvalDomainError."""
    name = node.key
    if name == "log" and np.any(np.asarray(args[0]) <= 0.0):
        raise EvalDomainError(to_source(node), "log of a nonpositive value")
    if name == "sqrt" and np.any(np.asarray(args[0]) < 0.0):
        raise EvalDomainError(to_source(node), "sqrt of a negative value")
    return _FUNCTIONS[name][1](*args)


_NEG = "u-"  # the key of unary minus
_BINARY = ("+", "-", "*", "/", "^")


def _ev(node, t, y):
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Const):
        return _CONSTS[node.name]
    if isinstance(node, Var):
        if node.index == 0:
            return t
        return y[..., node.index - 1][()]  # a 1-D state's coordinate is a numpy scalar, as a 0-d t is
    if node.key == _NEG:
        return -_ev(node.args[0], t, y)
    if node.key in _BINARY:
        return _binop(node, _ev(node.args[0], t, y), _ev(node.args[1], t, y))
    return _call(node, [_ev(a, t, y) for a in node.args])


_ONE = np.float64(1.0)


def _linear(*terms) -> dict:
    """sum of coef * grad over the (coef, grad) terms, per coordinate, in term order."""
    out: dict = {}
    for coef, grad in terms:
        for k, g in grad.items():
            term = g if coef is _ONE else coef * g
            out[k] = out[k] + term if k in out else term
    return out


def _binop_grad(op: str, a, da: dict, b, db: dict, value) -> dict:
    if op == "+":
        return _linear((_ONE, da), (_ONE, db))
    if op == "-":
        return _linear((_ONE, da), (-_ONE, db))
    if op == "*":
        return _linear((b, da), (a, db))
    if op == "/":
        return _linear((1.0 / b, da), (-value / b, db))
    # power: d(a^b) = b a^(b-1) da + a^b log(a) db; the log term only when b reads y
    coef = b * np.power(a, b - 1.0)
    if np.any(b == 0.0):  # a^0 is constant, also at a = 0
        coef = np.where(b == 0.0, 0.0, coef)
    if not db:
        return _linear((coef, da))
    return _linear((coef, da), (value * np.log(a), db))


def _call_grad(name: str, args, value) -> dict:
    if name in ("min", "max"):
        (a, da), (b, db) = args
        left = a <= b if name == "min" else a >= b  # ties take the left
        return {k: np.where(left, da.get(k, 0.0), db.get(k, 0.0)) for k in da.keys() | db.keys()}
    a, da = args[0]
    if name == "sin":
        coef = np.cos(a)
    elif name == "cos":
        coef = -np.sin(a)
    elif name == "tan":
        coef = 1.0 + value * value
    elif name == "atan":
        coef = 1.0 / (1.0 + a * a)
    elif name == "exp":
        coef = value
    elif name == "log":
        coef = 1.0 / a
    elif name == "abs":
        coef = np.sign(a)
    else:  # sqrt
        coef = 0.5 / value
    return _linear((coef, da))


def _dv(node, t, y):
    if isinstance(node, Var) and node.index > 0:
        return _ev(node, t, y), {node.index - 1: _ONE}
    if isinstance(node, (Num, Const, Var)):
        return _ev(node, t, y), {}
    if node.key == _NEG:
        a, da = _dv(node.args[0], t, y)
        return -a, _linear((-_ONE, da))
    if node.key in _BINARY:
        a, da = _dv(node.args[0], t, y)
        b, db = _dv(node.args[1], t, y)
        value = _binop(node, a, b)
        if not (da or db):
            return value, {}
        with np.errstate(all="ignore"):
            return value, _binop_grad(node.key, a, da, b, db, value)
    args = [_dv(arg, t, y) for arg in node.args]
    value = _call(node, [a for a, _ in args])
    if not any(grad for _, grad in args):
        return value, {}
    with np.errstate(all="ignore"):
        return value, _call_grad(node.key, args, value)


def _nonfinite_site(node, t, y):
    for child in node.args:
        site = _nonfinite_site(child, t, y)
        if site is not None:
            return site
    return None if np.all(np.isfinite(_ev(node, t, y))) else node


def _walk(walk, e, t, y):
    y = np.asarray(y, dtype=float)
    if e.nvars > 0 and y.shape[-1] != e.nvars:
        raise EvalDomainError(e.source, f"state has {y.shape[-1]} coordinates, expression expects {e.nvars}")
    t = np.asarray(t, dtype=float)[()]
    try:
        with np.errstate(all="raise", under="ignore"):
            return walk(e.root, t, y)
    except FloatingPointError as exc:
        with np.errstate(all="ignore"):
            site = _nonfinite_site(e.root, t, y) or e.root
        raise EvalOverflowError(to_source(site), str(exc)) from None


def walk_evaluate(e, t, y):
    """fdvi.expr.evaluate by walking the tree."""
    return _walk(_ev, e, t, y)


def walk_value_and_gradient(e, t, y):
    """fdvi.expr.value_and_gradient by walking the tree."""
    return _walk(_dv, e, t, y)


# --- recursive-descent parser ----------------------------------------------------
#
# fdvi.expr parses by precedence climbing over one syntax table; this is its
# reference: one method per grammar level, with the operator set and its
# precedence written into the methods, over a tokenizer that matches one token
# at a time.  Both must give equal trees, or the same error type and text.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)
_ALIASES = {"arctan": "atan"}


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | end
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            # Skip trailing whitespace before declaring failure.
            rest = source[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ExprSyntaxError(bad, "a number, name or operator", source[bad])
        if m.group("num") is not None:
            tokens.append(_Token("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(_Token("name", m.group("name"), m.start("name")))
        else:
            tokens.append(_Token("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


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
        if self.cur.kind == "op" and self.cur.text == op:
            self.advance()
            return
        raise ExprSyntaxError(self.cur.pos, repr(op), self.cur.text or "end of input")

    def parse(self):
        node = self.expr()
        if self.cur.kind != "end":
            raise ExprSyntaxError(self.cur.pos, "end of input", self.cur.text)
        return node

    def expr(self):
        node = self.term()
        while self.cur.kind == "op" and self.cur.text in "+-":
            op = self.advance().text
            node = Apply(op, (node, self.term()))
        return node

    def term(self):
        node = self.unary()
        while self.cur.kind == "op" and self.cur.text in "*/":
            op = self.advance().text
            node = Apply(op, (node, self.unary()))
        return node

    def unary(self):
        if self.cur.kind == "op" and self.cur.text == "-":
            self.advance()
            return Apply(_NEG, (self.unary(),))
        return self.power()

    def power(self):
        base = self.primary()
        if self.cur.kind == "op" and self.cur.text == "^":
            self.advance()
            return Apply("^", (base, self.unary()))  # right-assoc, exponent may be signed
        return base

    def primary(self):
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
            if self.cur.kind == "op" and self.cur.text == "(":
                if name not in _FUNCTIONS:
                    raise UnknownIdentifier(tok.text, tok.pos, "not a known function")
                arity = _FUNCTIONS[name][0]
                self.advance()
                args = [self.expr()]
                while self.cur.kind == "op" and self.cur.text == ",":
                    self.advance()
                    args.append(self.expr())
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
            if name in _FUNCTIONS:
                raise ExprSyntaxError(self.cur.pos, f"'(' after function {name!r}", self.cur.text)
            raise UnknownIdentifier(tok.text, tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(tok.pos, "a number, name or '('", tok.text or "end of input")


def descent_parse(source: str, n: int):
    """The root of fdvi.expr.parse(source, n), by recursive descent."""
    return _Parser(source, n).parse()
