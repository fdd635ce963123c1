"""Expression language for scalar fields on phase space.

Grammar (EBNF)::

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := number | ident | ident '(' expr (',' expr)* ')' | '(' expr ')'

Precedence: ``^`` binds tighter than unary minus, which binds tighter
than ``*``/``/``, which bind tighter than ``+``/``-``.  Identifiers are
the chart variables of the owning object (``x1..xn``, ``p1..pn`` on
phase space, ``y1..ym`` for surface parameters, plus context-specific
names such as ``v``, ``w`` or ``nu``) and the function names below.

Functions: sqrt, sin, cos, tan, exp, log, abs, atan2(a,b), pow(a,b).

Parsed expressions are immutable; evaluation is side-effect-free and
deterministic.

Series evaluation (`evaluate_series`) replays a flat register program that
each Expression compiles once, on first use (a tape; Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 6):

- literals stay scalars: a constant subtree folds to one float through the
  same float algebra as `evaluate`, so ``x1 + sqrt(0)`` evaluates where a
  series of 0 could not be differentiated, and a series operand times a
  scalar costs no jet product;
- ``a / c`` for a nonzero constant c is ``a * (1/c)``, rounded exactly as
  the product with the reciprocal series;
- an integer constant exponent is a power by repeated squaring that starts
  from the base;
- structurally equal subexpressions are computed once;
- a constant-only expression comes back as a series with the first
  variable's batch shape and trust.

A constant subtree the float algebra cannot fold (``log(0)``, ``1/0``) is
left to the series operation, which raises at its place in the program;
an `EvaluationDomainError` names the subexpression text and its offset.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import taylor
from .errors import (
    EvaluationDomainError,
    ExpressionSyntaxError,
    UnknownIdentifierError,
    VariableIndexError,
)

FUNCTIONS = {
    "sqrt": 1,
    "sin": 1,
    "cos": 1,
    "tan": 1,
    "exp": 1,
    "log": 1,
    "abs": 1,
    "atan2": 2,
    "pow": 2,
}

_INDEXED = re.compile(r"^([xpy])([0-9]+)$")


# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Node:
    span: tuple = field(compare=False)


@dataclass(frozen=True)
class Num(Node):
    value: float


@dataclass(frozen=True)
class Var(Node):
    name: str
    slot: int


@dataclass(frozen=True)
class Neg(Node):
    arg: Node


@dataclass(frozen=True)
class Bin(Node):
    op: str
    left: Node
    right: Node


@dataclass(frozen=True)
class Call(Node):
    fn: str
    args: tuple


class Expression:
    """An immutable parsed expression over a fixed ordered variable list."""

    def __init__(self, text, variables, root):
        self.text = text
        self.variables = tuple(variables)
        self.root = root
        self._program = None

    def __repr__(self):
        return f"Expression({self.text!r}, vars={self.variables})"

    def snippet(self, node):
        return self.text[node.span[0]:node.span[1]]

    def program(self):
        """The series program `evaluate_series` replays, compiled on first use."""
        if self._program is None:
            self._program = _compile(self)
        return self._program


# ----------------------------------------------------------------------
# tokenizer / parser
# ----------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExpressionSyntaxError(
                f"unexpected character {text[pos]!r}", pos
            )
        start = m.start("num") if m.group("num") else (
            m.start("ident") if m.group("ident") else m.start("op"))
        kind = "num" if m.group("num") else ("ident" if m.group("ident") else "op")
        tokens.append((kind, m.group(kind), start))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, variables):
        self.text = text
        self.variables = tuple(variables)
        self.slots = {name: i for i, name in enumerate(self.variables)}
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.next()
        if kind != "op" or val != op:
            raise ExpressionSyntaxError(f"expected {op!r}, found {val!r}", off)

    def parse(self):
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected trailing input {val!r}", off)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = Bin((node.span[0], rhs.span[1]), val, node, rhs)
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                node = Bin((node.span[0], rhs.span[1]), val, node, rhs)
            else:
                return node

    def unary(self):
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.next()
            arg = self.unary()
            return Neg((off, arg.span[1]), arg)
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.next()
            exponent = self.unary()
            return Bin((base.span[0], exponent.span[1]), "^", base, exponent)
        return base

    def atom(self):
        kind, val, off = self.next()
        if kind == "num":
            return Num((off, off + len(val)), float(val))
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            # the parentheses belong to the node, so a parent's span stays balanced
            return replace(node, span=(off, self.tokens[self.pos - 1][2] + 1))
        if kind == "ident":
            if val in FUNCTIONS:
                self.expect_op("(")
                args = [self.expr()]
                while self.peek()[:2] == ("op", ","):
                    self.next()
                    args.append(self.expr())
                self.expect_op(")")
                end = self.tokens[self.pos - 1][2] + 1
                if len(args) != FUNCTIONS[val]:
                    raise ExpressionSyntaxError(
                        f"{val} takes {FUNCTIONS[val]} argument(s), got {len(args)}", off
                    )
                return Call((off, end), val, tuple(args))
            if val in self.slots:
                return Var((off, off + len(val)), val, self.slots[val])
            m = _INDEXED.match(val)
            if m is not None and any(v.startswith(m.group(1)) for v in self.slots):
                raise VariableIndexError(
                    f"variable {val!r} exceeds the available index range", off
                )
            raise UnknownIdentifierError(f"unknown identifier {val!r}", off)
        raise ExpressionSyntaxError(f"unexpected token {val!r}", off)


def phase_variables(n):
    return tuple(f"x{i+1}" for i in range(n)) + tuple(f"p{i+1}" for i in range(n))


def parse(text, variables):
    """Parse `text` over an explicit ordered variable list."""
    if not text or not text.strip():
        raise ExpressionSyntaxError("empty expression", 0)
    return Expression(text, variables, _Parser(text, variables).parse())


def parse_expression(text, n):
    """Parse an expression over the 2n phase-space variables x1..xn, p1..pn."""
    if n < 2:
        raise ValueError("phase-space dimension must be at least 2")
    return parse(text, phase_variables(n))


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

class _FloatAlgebra:
    @staticmethod
    def pow(a, b):
        if float(b).is_integer():
            if a == 0.0 and b < 0:
                raise EvaluationDomainError("zero raised to a negative power")
            return a ** int(b)
        if a <= 0.0:
            raise EvaluationDomainError("non-integer power of non-positive base")
        return a ** b

    @staticmethod
    def sqrt(u):
        if u < 0.0:
            raise EvaluationDomainError("sqrt of negative value")
        return math.sqrt(u)

    sin = staticmethod(math.sin)
    cos = staticmethod(math.cos)
    tan = staticmethod(math.tan)
    exp = staticmethod(math.exp)
    abs = staticmethod(abs)

    @staticmethod
    def log(u):
        if u <= 0.0:
            raise EvaluationDomainError("log of non-positive value")
        return math.log(u)

    @staticmethod
    def atan2(a, b):
        if a == 0.0 and b == 0.0:
            raise EvaluationDomainError("atan2 at the origin")
        return math.atan2(a, b)

    @staticmethod
    def div(a, b):
        if b == 0.0:
            raise EvaluationDomainError("division by zero")
        return a / b


class _SeriesAlgebra:
    """Series operations of the compiled program; none returns or mutates an input."""

    @staticmethod
    def pow(a, b):
        if isinstance(b, taylor.TaylorSeries):
            if not np.any(b.coef[..., 1:] != 0.0):
                b0 = b.value()
                if np.ndim(b0) == 0 or np.all(b0 == b0.flat[0]):
                    return a.powc(float(b0.flat[0])).truncate(b.trust)
            return (b * a.log()).exp()
        return a.powc(float(b))

    sqrt = staticmethod(lambda u: u.sqrt())
    sin = staticmethod(lambda u: u.sin())
    cos = staticmethod(lambda u: u.cos())
    tan = staticmethod(lambda u: u.tan())
    exp = staticmethod(lambda u: u.exp())
    log = staticmethod(lambda u: u.log())
    abs = staticmethod(lambda u: u.absolute())
    atan2 = staticmethod(taylor.atan2_series)


# the float operations of `evaluate`, which also fold a constant subtree
_FOLD = {"neg": operator.neg, "+": operator.add, "-": operator.sub,
         "*": operator.mul, "/": _FloatAlgebra.div, "^": _FloatAlgebra.pow}
_FOLD.update((fn, getattr(_FloatAlgebra, fn)) for fn in FUNCTIONS if fn != "pow")


def _operation(node):
    """(op, operand nodes) of a Neg, Bin or Call node; op keys `_FOLD` and `_SERIES`."""
    if isinstance(node, Neg):
        return "neg", (node.arg,)
    if isinstance(node, Bin):
        return node.op, (node.left, node.right)
    return ("^" if node.fn == "pow" else node.fn), node.args


def _located(err, expr, node):
    """`err` as an EvaluationDomainError naming the subexpression at `node`.

    An error that already names a subexpression comes back unchanged.
    """
    if isinstance(err, EvaluationDomainError) and err.snippet is not None:
        return err
    return EvaluationDomainError(str(err), expr.snippet(node), node.span[0])


def _eval(node, env, expr):
    if isinstance(node, Num):
        return float(node.value)
    if isinstance(node, Var):
        return env[node.slot]
    op, args = _operation(node)
    args = [_eval(a, env, expr) for a in args]
    try:
        return _FOLD[op](*args)
    except (EvaluationDomainError, ArithmeticError, ValueError) as err:
        # math's own range and domain errors as well as the algebra's checks
        raise _located(err, expr, node) from None


def evaluate(expr, values):
    """Plain float evaluation; `values` follows expr.variables order."""
    env = [float(v) for v in values]
    if len(env) != len(expr.variables):
        raise ValueError("wrong number of variable values")
    return _eval(expr.root, env, expr)


# ----------------------------------------------------------------------
# series evaluation: a flat register program per expression
# ----------------------------------------------------------------------

_SERIES = {"neg": operator.neg, "+": operator.add, "-": operator.sub,
           "*": operator.mul, "/": operator.truediv, "^": _SeriesAlgebra.pow}
_SERIES.update((fn, getattr(_SeriesAlgebra, fn)) for fn in FUNCTIONS if fn != "pow")


def _lift(c, template):
    """A folded constant as a series with the template's batch shape and trust."""
    return template.ctx.constant(np.broadcast_to(c, template.shape), template.trust)


def _scale(s, c):
    """s * c for a constant c, rounded as the product with a constant series is.

    That product sums its monomial pairs from 0.0, so it gives 0.0 where
    s * c gives -0.0; adding 0.0 does the same.
    """
    return taylor.TaylorSeries(s.ctx, s.coef * c + 0.0, s.trust)


def _compile(expr):
    """Compile `expr` into (code, result) for `evaluate_series`.

    Registers 0..nvars-1 hold the variables and instruction i writes
    register nvars + i.  An instruction is (fn, registers, node): fn applied
    to those registers, with any folded constant bound into fn, and node the
    AST node whose text and offset name a domain error.  Instructions are
    numbered by value, so a repeated subexpression is computed once.
    """
    nvars = len(expr.variables)
    code = []
    numbers = {}

    def emit(key, fn, regs, node):
        if key not in numbers:
            numbers[key] = nvars + len(code)
            code.append((fn, regs, node))
        return numbers[key]

    def lift(c):
        return emit(("lift", c.hex()), partial(_lift, c), (0,), None)

    def series(op, args, node):
        # args: registers (int) and folded constants (float), at least one register
        if op == "/" and isinstance(args[1], float) and args[1] != 0.0:
            # a / c is a * (1/c): bit-identical to the reciprocal series' product
            op, args = "*", (args[0], 1.0 / args[1])
        if op == "*" and isinstance(args[0], float):
            args = args[::-1]
        key = (op,) + tuple(a if isinstance(a, int) else a.hex() for a in args)
        fn = _SERIES[op]
        a, b = args[0], args[-1]
        if op == "*" and isinstance(b, float):
            return emit(key, lambda s: _scale(s, b), (a,), node)
        if op == "/" and isinstance(a, float):
            return emit(key, lambda s: _scale(s._reciprocal(), a), (b,), node)
        if op in ("+", "-", "^") and isinstance(b, float):
            return emit(key, lambda s: fn(s, b), (a,), node)
        if op in ("+", "-") and isinstance(a, float):
            return emit(key, lambda s: fn(a, s), (b,), node)
        # the other constants enter as series: a constant base, atan2, x / 0
        regs = tuple(r if isinstance(r, int) else lift(r) for r in args)
        return emit(key, fn, regs, node)

    def walk(node):
        if isinstance(node, Num):
            return float(node.value)
        if isinstance(node, Var):
            return node.slot
        op, args = _operation(node)
        args = tuple(walk(a) for a in args)
        if all(isinstance(a, float) for a in args):
            try:
                return _FOLD[op](*args)
            except (EvaluationDomainError, ArithmeticError, ValueError):
                # the series operation raises it when the program reaches it
                args = tuple(lift(a) for a in args)
        return series(op, args, node)

    result = walk(expr.root)
    if isinstance(result, float):
        result = lift(result)
    return code, result


def evaluate_series(expr, env):
    """Evaluate over TaylorSeries inputs (one per variable, shared context).

    Replays the expression's compiled program (see the module docstring).
    """
    if len(env) != len(expr.variables):
        raise ValueError("wrong number of variable series")
    code, result = expr.program()
    regs = list(env)
    try:
        for fn, args, node in code:
            regs.append(fn(*[regs[i] for i in args]))
    except EvaluationDomainError as err:
        raise _located(err, expr, node) from None
    return regs[result]


# ----------------------------------------------------------------------
# jets
# ----------------------------------------------------------------------

def _multi_index(variables, index):
    """A multi-index over `variables` as a tuple, from a sequence or a {name: order} mapping."""
    if not isinstance(index, dict):
        return tuple(index)
    mi = [0] * len(variables)
    for name, k in index.items():
        mi[variables.index(name)] = k
    return tuple(mi)


class Jet:
    """Value plus exact mixed partials up to a total order.

    Partials are keyed by multi-index over the expression's variables;
    keying by multi-index makes permutation symmetry of mixed partials
    hold identically.  The zero multi-index entry equals the value.
    """

    def __init__(self, variables, order, value, partials):
        self.variables = tuple(variables)
        self.order = order
        self.value = value
        self.partials = partials

    def partial(self, index):
        """Look up a partial by multi-index tuple or {name: order} mapping."""
        return self.partials[_multi_index(self.variables, index)]

    def d(self, **orders):
        return self.partial(orders)


def jet_from_series(series, variables):
    parts = {}
    ctx = series.ctx
    for i, m in enumerate(ctx.monomials):
        if sum(m) > series.trust:
            continue
        parts[m] = float(series.coef[..., i] * ctx.factorials[i])
    return Jet(variables, series.trust, parts[(0,) * ctx.nvars], parts)


def evaluate_jet(expr, q, order):
    """Exact mixed partials of `expr` at `q` up to `order` (0..3).

    `q` is a PhasePoint for phase-space expressions or any sequence of
    variable values matching expr.variables.
    """
    if order < 0 or order > 3:
        raise ValueError("jet order must be between 0 and 3")
    values = _point_values(expr, q)
    ctx = taylor.context(len(expr.variables), order)
    env = [ctx.variable(i, values[i]) for i in range(len(values))]
    series = evaluate_series(expr, env)
    return jet_from_series(series, expr.variables)


def _point_values(expr, q):
    if hasattr(q, "x") and hasattr(q, "p"):
        values = list(np.concatenate([q.x, q.p]))
    else:
        values = [float(v) for v in q]
    if len(values) != len(expr.variables):
        raise ValueError(
            f"expected {len(expr.variables)} variable values, got {len(values)}"
        )
    return values


def finite_difference_probe(expr, q, multi_index, step):
    """Central-difference estimate of one mixed partial (order <= 3).

    Serves as the independent numerical oracle for the jet evaluator.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    values = _point_values(expr, q)
    multi_index = _multi_index(expr.variables, multi_index)
    if sum(multi_index) > 3:
        raise ValueError("finite-difference probe supports total order <= 3")

    def probe(vals, mi):
        for v, k in enumerate(mi):
            if k > 0:
                lower = list(mi)
                lower[v] -= 1
                hi = list(vals)
                hi[v] += step
                lo = list(vals)
                lo[v] -= step
                return (probe(hi, lower) - probe(lo, lower)) / (2.0 * step)
        return evaluate(expr, vals)

    return probe(values, multi_index)


# ----------------------------------------------------------------------
# substitution
# ----------------------------------------------------------------------

def substitute(expr, name, replacement):
    """Replace a named variable by a whole expression.

    Each `name` token of expr's text becomes ``(<replacement.text>)``,
    parsed over the variables of `replacement`, an Expression, so a domain
    error names its place in the substituted text.  A variable of expr's
    text missing from that list raises the parser's UnknownIdentifierError
    (VariableIndexError for an indexed name past the list's range).
    """
    expr.variables.index(name)      # a ValueError when name is not a variable of expr
    parts, pos = [], 0
    for kind, val, off in _tokenize(expr.text):
        if kind == "ident" and val == name:
            parts += [expr.text[pos:off], f"({replacement.text})"]
            pos = off + len(val)
    return parse("".join(parts) + expr.text[pos:], replacement.variables)
