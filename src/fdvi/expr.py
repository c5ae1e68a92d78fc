"""Small arithmetic expression language for problem configs.

Grammar (standard precedence, ^ right-associative and binding tighter
than unary minus):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := primary ['^' unary]
    primary := NUMBER | 'pi' | 'e' | 't' | 'y<k>' | NAME '(' expr [',' expr] ')' | '(' expr ')'

Variables are t and y1..yn where n is fixed at parse time.  Evaluation
works on scalars or numpy arrays (t of shape (k,), y of shape (k, n))
and raises instead of propagating NaN/inf: the whole tree walk runs under
one numpy errstate that turns overflow into EvalOverflowError.

value_and_gradient walks the same tree in forward mode: next to each value
it carries the y-gradient as a sparse map {coordinate: partial} over the
coordinates the subexpression reads, with one derivative rule per operator
and per function.  The verifier's field slope (FuzzyBoxField.slope) is
built on it.

Expression.reads is the set of variables an expression reads, from its
syntax alone; the verifier samples each constant only along the axes
(time, state) that its expressions read.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ArityError, EvalDomainError, EvalOverflowError, ExprSyntaxError, UnknownIdentifier

# --- AST -----------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Const:
    name: str  # "pi" or "e"


@dataclass(frozen=True)
class Var:
    name: str   # "t" or "y<k>"
    index: int  # 0 for t, 1-based coordinate otherwise


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


Node = Num | Const | Var | Neg | BinOp | Call

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
            stack.extend(_operands(node))
        return frozenset(out)


# --- Tokenizer -----------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


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
        if self.cur.kind == "op" and self.cur.text == op:
            self.advance()
            return
        raise ExprSyntaxError(self.cur.pos, repr(op), self.cur.text or "end of input")

    def parse(self) -> Node:
        node = self.expr()
        if self.cur.kind != "end":
            raise ExprSyntaxError(self.cur.pos, "end of input", self.cur.text)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self.cur.kind == "op" and self.cur.text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.unary()
        while self.cur.kind == "op" and self.cur.text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.unary())
        return node

    def unary(self) -> Node:
        if self.cur.kind == "op" and self.cur.text == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.primary()
        if self.cur.kind == "op" and self.cur.text == "^":
            self.advance()
            return BinOp("^", base, self.unary())  # right-assoc, exponent may be signed
        return base

    def primary(self) -> Node:
        tok = self.cur
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
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
                return Call(name, tuple(args))
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


def parse(source: str, n: int) -> Expression:
    """Parse ``source`` as an expression over t and y1..yn."""
    if n < 0:
        raise ValueError("dimension n must be nonnegative")
    root = _Parser(source, n).parse()
    return Expression(root, n, source)


# --- Evaluation ----------------------------------------------------------


def _binop(node: BinOp, a, b):
    """The value of node from its operands' values; domain violations raise EvalDomainError."""
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        if np.any(np.asarray(b) == 0.0):
            raise EvalDomainError(to_source(node), "division by zero")
        return a / b
    # power
    if np.any((a < 0.0) & (b != np.floor(b))):
        raise EvalDomainError(to_source(node), "negative base with non-integer exponent")
    if np.any((a == 0.0) & (b < 0.0)):
        raise EvalDomainError(to_source(node), "zero base with negative exponent")
    return np.power(a, b)


def _call(node: Call, args):
    """The value of node from its arguments' values; domain violations raise EvalDomainError."""
    name = node.name
    if name == "log" and np.any(np.asarray(args[0]) <= 0.0):
        raise EvalDomainError(to_source(node), "log of a nonpositive value")
    if name == "sqrt" and np.any(np.asarray(args[0]) < 0.0):
        raise EvalDomainError(to_source(node), "sqrt of a negative value")
    return _FUNCTIONS[name][1](*args)


def _ev(node: Node, t, y):
    if isinstance(node, Num):
        return np.float64(node.value)  # numpy arithmetic, so overflow trips the errstate
    if isinstance(node, Const):
        return _CONSTS[node.name]
    if isinstance(node, Var):
        if node.index == 0:
            return t
        return y[..., node.index - 1]
    if isinstance(node, Neg):
        return -_ev(node.operand, t, y)
    if isinstance(node, BinOp):
        return _binop(node, _ev(node.left, t, y), _ev(node.right, t, y))
    return _call(node, [_ev(a, t, y) for a in node.args])


# --- Forward-mode derivatives ----------------------------------------------
#
# A gradient is a dict {0-based y coordinate: partial derivative}, holding
# exactly the coordinates the subexpression reads, so a row costs work in the
# number of coordinates read, not in n.  A partial broadcasts against the
# value; the partial of y_k itself is the scalar 1.

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
        coef = np.sign(a)  # sign(0) = 0
    else:  # sqrt
        coef = 0.5 / value
    return _linear((coef, da))


def _dv(node: Node, t, y):
    """(value, gradient) of node at (t, y); values check their domain as _ev's do."""
    if isinstance(node, Var) and node.index > 0:
        return y[..., node.index - 1], {node.index - 1: _ONE}
    if isinstance(node, (Num, Const, Var)):
        return _ev(node, t, y), {}
    if isinstance(node, Neg):
        a, da = _dv(node.operand, t, y)
        return -a, _linear((-_ONE, da))
    if isinstance(node, BinOp):
        a, da = _dv(node.left, t, y)
        b, db = _dv(node.right, t, y)
        value = _binop(node, a, b)
        if not (da or db):
            return value, {}
        with np.errstate(all="ignore"):  # a partial may be inf or nan where the value is finite
            return value, _binop_grad(node.op, a, da, b, db, value)
    args = [_dv(arg, t, y) for arg in node.args]
    value = _call(node, [a for a, _ in args])
    if not any(grad for _, grad in args):
        return value, {}
    with np.errstate(all="ignore"):
        return value, _call_grad(node.name, args, value)


def _operands(node: Node) -> tuple:
    if isinstance(node, Neg):
        return (node.operand,)
    if isinstance(node, BinOp):
        return (node.left, node.right)
    if isinstance(node, Call):
        return node.args
    return ()


def _nonfinite_site(node: Node, t, y) -> Node | None:
    """The innermost subexpression whose value is not finite, if any."""
    for child in _operands(node):
        site = _nonfinite_site(child, t, y)
        if site is not None:
            return site
    return None if np.all(np.isfinite(_ev(node, t, y))) else node


def _walk(walk, e: Expression, t, y):
    """walk(e.root, t, y) on validated inputs, with value overflow raised as EvalOverflowError."""
    y = np.asarray(y, dtype=float)
    if e.nvars > 0 and y.shape[-1] != e.nvars:
        raise EvalDomainError(e.source, f"state has {y.shape[-1]} coordinates, expression expects {e.nvars}")
    t = np.asarray(t, dtype=float)[()]  # a 0-d t becomes a numpy scalar
    try:
        with np.errstate(all="raise", under="ignore"):
            return walk(e.root, t, y)
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
    return _walk(_ev, e, t, y)


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
    return _walk(_dv, e, t, y)


# --- Pretty printer ------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node: Node) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC["atom"]


def to_source(node: Node) -> str:
    """Render an AST back to parseable text (reparses to an equal tree)."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = to_source(node.operand)
        if _prec(node.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        lp = _prec(node.left)
        rp = _prec(node.right)
        ls = to_source(node.left)
        rs = to_source(node.right)
        p = _PREC[node.op]
        if node.op == "^":
            # right-assoc; a^b^c prints without parens, (a^b)^c keeps them
            if lp <= p:
                ls = f"({ls})"
            if rp < p and not isinstance(node.right, Neg):
                rs = f"({rs})"
        else:
            if lp < p:
                ls = f"({ls})"
            # -, / are left-assoc: parenthesize right child of equal precedence
            if rp < p or (rp == p and node.op in "-/"):
                rs = f"({rs})"
        return f"{ls} {node.op} {rs}"
    return f"{node.name}({', '.join(to_source(a) for a in node.args)})"
