"""Problem definitions: expression ASTs, a line-oriented file format, and
evaluation over both scalars and jets.

One jet evaluator, ``eval_jet_at``, takes a jet for each variable: the
coordinate jets of ``eval_jet`` expand an expression around a point, and
univariate jets along a curve give its Taylor coefficients on that curve.
``eval_partials`` gives the first partials at a point by forward mode, bit
for bit the degree-1 coefficients of ``eval_jet`` at less cost; the
solver's Jacobian comes from it.  The path sweeps read one coefficient,
the top one, where the seeds are 0; ``eval_top`` computes just that
coefficient, so an affine summand, which adds an exact 0 there, is
never swept.

File format (UTF-8, ``#`` starts a comment, keys in this order)::

    vars: <name> <name> ...
    eq: <expression>              # one per variable, in order
    start: <decimal> ...
    root: <decimal> ...           # optional, repeatable

Operator precedence, tightest first: ``^`` (non-negative integer literal
exponents only), unary minus, ``* /``, ``+ -``.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Union

from .errors import (
    MalformedDecimalError,
    NonSquareSystemError,
    ParseError,
    UnknownVariableError,
)
from .numerics import Context, MPVector, scalar_from_decimal
from .taylor import (
    TaylorPoly,
    binary_power,
    checked_divisor,
    jet_add,
    jet_compose_univariate,
    jet_constant,
    jet_mul,
    jet_neg,
    jet_pow_int,
    jet_recip,
    jet_sub,
    jet_var,
    univariate_series,
)

RESERVED_FUNCTIONS = ("exp", "log", "sin", "cos", "sqrt")

_NAME_RE = re.compile(r"[A-Za-z_]\w*\Z")


@dataclass(frozen=True)
class Const:
    text: str


@dataclass(frozen=True)
class Var:
    index: int
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Power:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Union[Const, Var, Neg, BinOp, Power, Call]


@dataclass(frozen=True)
class Problem:
    """A square system of expressions with a start point and optional roots."""

    var_names: tuple[str, ...]
    equations: tuple[Expr, ...]
    start: MPVector
    known_roots: tuple[MPVector, ...]
    context: Context

    @property
    def nvars(self) -> int:
        return len(self.var_names)


# --- tokenizer and parser ----------------------------------------------------

# one match per token: a number, a name, an operator, or a character that
# starts no token (named by the "unexpected character" error)
_TOKEN_RE = re.compile(
    r"((?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)|([A-Za-z_]\w*)|([-+*/^()])|(\S)"
)

# the token after the last one
_END = ("", "", "", "")

# binding power of the binary operators; any other token ends a chain
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def _found(token) -> str:
    return "end of expression" if token is _END else repr("".join(token))


class _ExprParser:
    """Precedence climbing over ``_TOKEN_RE`` tokens that end in ``_END``."""

    def __init__(self, tokens, var_indices, line):
        self.tokens = tokens
        self.var_indices = var_indices
        self.line = line
        self.pos = 0

    def binary(self, level: int = 1) -> Expr:
        """A left-associative chain of the operators that bind at ``level`` or tighter."""
        e = self.unary()
        while True:
            op = self.tokens[self.pos][2]
            binding = _PRECEDENCE.get(op, 0)
            if binding < level:
                return e
            self.pos += 1
            e = BinOp(op, e, self.binary(binding + 1))

    def unary(self) -> Expr:
        """Signs, then an atom, then an optional ``^`` and its exponent."""
        token = self.tokens[self.pos]
        self.pos += 1
        num, name, op, _ = token
        if num:
            e = Const(num)
        elif name:
            if self.tokens[self.pos][2] == "(":
                if name not in RESERVED_FUNCTIONS:
                    raise ParseError(f"unknown function {name!r}", self.line)
                self.pos += 1
                e = Call(name, self.closed())
            elif name in self.var_indices:
                e = Var(self.var_indices[name], name)
            elif name in RESERVED_FUNCTIONS:
                raise ParseError(f"{name!r} is a function and needs parentheses", self.line)
            else:
                raise UnknownVariableError(f"unknown variable {name!r}", self.line)
        elif op == "(":
            e = self.closed()
        elif op == "-":
            return Neg(self.unary())
        elif op == "+":
            return self.unary()
        else:
            what = "end of expression" if token is _END else f"token {op!r}"
            raise ParseError(f"unexpected {what}", self.line)
        if self.tokens[self.pos][2] != "^":
            return e
        exponent = self.tokens[self.pos + 1]
        self.pos += 2
        if not exponent[0].isdigit():
            raise ParseError(
                f"exponent must be a non-negative integer literal, found {_found(exponent)}",
                self.line,
            )
        if self.tokens[self.pos][2] == "^":
            raise ParseError("chained '^' needs parentheses", self.line)
        return Power(e, int(exponent[0]))

    def closed(self) -> Expr:
        """An expression and the ``)`` after it."""
        e = self.binary()
        token = self.tokens[self.pos]
        if token[2] != ")":
            raise ParseError(f"expected ')', found {_found(token)}", self.line)
        self.pos += 1
        return e


def parse_expression(text: str, var_indices: dict, line: int = 0) -> Expr:
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise ParseError("empty expression", line)
    bad = [t[3] for t in tokens if t[3]]
    if bad:
        raise ParseError(f"unexpected character {bad[0]!r}", line)
    tokens.append(_END)
    parser = _ExprParser(tokens, var_indices, line)
    try:
        e = parser.binary()
    except RecursionError:
        raise ParseError("expression nests too deeply", line) from None
    if tokens[parser.pos] is not _END:
        raise ParseError(f"trailing input starting at {_found(tokens[parser.pos])}", line)
    return e


# --- problem files -----------------------------------------------------------


def _split_values(rest: str, expected: int, what: str, ctx: Context, line: int):
    parts = rest.split()
    if len(parts) != expected:
        raise ParseError(
            f"{what} needs {expected} value(s), found {len(parts)}", line
        )
    out = []
    for p in parts:
        try:
            out.append(scalar_from_decimal(p, ctx))
        except MalformedDecimalError as exc:
            raise ParseError(str(exc), line) from exc
    return MPVector(out)


def parse_problem(text: str, ctx: Context) -> Problem:
    """Parse a problem file.

    ``start`` and ``root`` values are checked and resolved at working
    precision here.  ``Const`` nodes keep their literal text, which the
    tokenizer has already matched as a decimal; evaluation resolves it
    through ``Context.const``, which parses each text once per context.
    """
    var_names: list[str] = []
    var_indices: dict[str, int] = {}
    equations: list[Expr] = []
    start = None
    roots: list[MPVector] = []
    vars_line = None
    last_line = 0

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        last_line = lineno
        if ":" not in line:
            raise ParseError(f"expected 'key: ...', found {line!r}", lineno)
        key, rest = (s.strip() for s in line.split(":", 1))
        if key == "vars":
            if var_names:
                raise ParseError("duplicate vars line", lineno)
            names = rest.split()
            if not names:
                raise ParseError("vars line declares no variables", lineno)
            for name in names:
                if not _NAME_RE.fullmatch(name):
                    raise ParseError(f"invalid variable name {name!r}", lineno)
                if name in RESERVED_FUNCTIONS:
                    raise ParseError(f"{name!r} is a reserved function name", lineno)
                if name in var_indices:
                    raise ParseError(f"duplicate variable {name!r}", lineno)
                var_indices[name] = len(var_names)
                var_names.append(name)
            vars_line = lineno
        elif key == "eq":
            if not var_names:
                raise ParseError("eq before vars", lineno)
            if start is not None:
                raise ParseError("eq after start", lineno)
            equations.append(parse_expression(rest, var_indices, lineno))
        elif key == "start":
            if not var_names:
                raise ParseError("start before vars", lineno)
            if start is not None:
                raise ParseError("duplicate start line", lineno)
            start = _split_values(rest, len(var_names), "start", ctx, lineno)
        elif key == "root":
            if start is None:
                raise ParseError("root before start", lineno)
            roots.append(_split_values(rest, len(var_names), "root", ctx, lineno))
        else:
            raise ParseError(f"unknown key {key!r}", lineno)

    if not var_names:
        raise ParseError("missing vars line", last_line or 1)
    if len(equations) != len(var_names):
        raise NonSquareSystemError(
            f"{len(var_names)} variables but {len(equations)} equations",
            vars_line,
        )
    if start is None:
        raise ParseError("missing start line", last_line)
    return Problem(tuple(var_names), tuple(equations), start, tuple(roots), ctx)


# --- evaluation --------------------------------------------------------------


def eval_scalar(e: Expr, point: MPVector, ctx: Context):
    """Evaluate an expression at a point at working precision.

    A quotient is a/b.  Its zero check and the elementary functions come
    from ``taylor``, as in the Jacobian and the sweeps at the same point.
    """
    if isinstance(e, Const):
        return ctx.const(e.text)
    if isinstance(e, Var):
        return point[e.index]
    if isinstance(e, Neg):
        return -eval_scalar(e.arg, point, ctx)
    if isinstance(e, BinOp):
        left = eval_scalar(e.left, point, ctx)
        right = eval_scalar(e.right, point, ctx)
        if e.op == "+":
            return left + right
        if e.op == "-":
            return left - right
        if e.op == "*":
            return left * right
        return left / checked_divisor(right)
    if isinstance(e, Power):
        return eval_scalar(e.base, point, ctx) ** e.exponent
    if isinstance(e, Call):
        return univariate_series(e.fn, eval_scalar(e.arg, point, ctx), 0, ctx)[0]
    raise TypeError(f"not an expression node: {e!r}")


def _is_literal(node) -> bool:
    """``Const`` or ``Neg(Const)``: a signed literal, valued without a point."""
    if isinstance(node, Neg):
        node = node.arg
    return isinstance(node, Const)


def eval_jet_at(e: Expr, seeds, ctx: Context) -> TaylorPoly:
    """Jet of an expression whose variable ``i`` is the jet ``seeds[i]``.

    Every seed has the same number of variables and degree, and so does
    every intermediate jet.  A literal is its constant jet, so a literal
    factor or divisor (-c included) is a ``jet_mul`` with that jet or
    with its ``jet_recip``: each coefficient takes one product, and the
    reciprocal one division.
    """
    if isinstance(e, Const):
        return jet_constant(ctx, ctx.const(e.text), seeds[0].nvars, seeds[0].max_degree)
    if isinstance(e, Var):
        return seeds[e.index]
    if isinstance(e, Neg):
        return jet_neg(eval_jet_at(e.arg, seeds, ctx))
    if isinstance(e, BinOp):
        left, right = eval_jet_at(e.left, seeds, ctx), eval_jet_at(e.right, seeds, ctx)
        if e.op == "+":
            return jet_add(left, right)
        if e.op == "-":
            return jet_sub(left, right)
        if e.op == "*":
            return jet_mul(left, right)
        return jet_mul(left, jet_recip(right))
    if isinstance(e, Power):
        return jet_pow_int(eval_jet_at(e.base, seeds, ctx), e.exponent)
    if isinstance(e, Call):
        return jet_compose_univariate(e.fn, eval_jet_at(e.arg, seeds, ctx))
    raise TypeError(f"not an expression node: {e!r}")


def eval_top(e: Expr, seeds, ctx: Context):
    """Top coefficient of ``eval_jet_at(e, seeds, ctx)``; None if ``e`` is affine.

    The seeds are univariate of degree p with an exact 0 at degree p, so an
    affine subtree's top coefficient is an exact 0: it is None here, never
    swept, and adding or subtracting it would leave the bits unchanged
    (0 - y is -y exactly).  +, -, unary minus, ^1 and a literal factor or
    divisor (``_is_literal``) read their operand's top coefficient alone,
    in ``jet_mul``'s order (a divisor as its one reciprocal).  Every other
    product, quotient, power and call reads it from its full sweep.
    """
    if isinstance(e, (Const, Var)):
        return None
    if isinstance(e, Neg):
        top = eval_top(e.arg, seeds, ctx)
        return None if top is None else -top
    if isinstance(e, BinOp):
        if e.op in "+-":
            left, right = eval_top(e.left, seeds, ctx), eval_top(e.right, seeds, ctx)
            if right is None:
                return left
            if left is None:
                return right if e.op == "+" else -right
            return left + right if e.op == "+" else left - right
        if e.op == "*" and _is_literal(e.left):
            top = eval_top(e.right, seeds, ctx)
            return None if top is None else eval_scalar(e.left, (), ctx) * top
        if _is_literal(e.right):
            top = eval_top(e.left, seeds, ctx)
            if top is None:
                return None
            c = eval_scalar(e.right, (), ctx)
            return top * (c if e.op == "*" else univariate_series("recip", c, 0, ctx)[0])
    if isinstance(e, Power) and e.exponent < 2:
        return eval_top(e.base, seeds, ctx) if e.exponent else None
    return eval_jet_at(e, seeds, ctx).coeffs[(seeds[0].max_degree,)]


def eval_jet(e: Expr, point: MPVector, max_degree: int, ctx: Context) -> TaylorPoly:
    """Jet of an expression around a point, truncated at max_degree."""
    n = point.dim
    seeds = [jet_var(ctx, i, x, n, max_degree) for i, x in enumerate(point)]
    return eval_jet_at(e, seeds, ctx)


def _times(a, b, one):
    """a·b; a factor that is ``one`` itself is exact, so the other is taken as it is.

    Every value and partial is rounded to the Context's precision already,
    so the product with an exact 1 is bit for bit the other factor.
    """
    if a is one:
        return b
    if b is one:
        return a
    return a * b


def _grad_sum(a, b, op, need):
    """a + b or a - b (``op`` from ``operator``); the value only if ``need``.

    An absent partial of a is an exact 0, so its sum is b_i or -b_i.
    """
    (a0, ga), (b0, gb) = a, b
    grad = dict(ga)
    for i, bi in gb.items():
        ai = grad.get(i)
        if ai is not None:
            grad[i] = op(ai, bi)
        else:
            grad[i] = -bi if op is operator.sub else bi
    return (op(a0, b0) if need else None), grad


def _grad_mul(a, b, one, need):
    # jet_mul's degree-1 sums: a0·b_i first, then a_i·b0
    (a0, ga), (b0, gb) = a, b
    grad = {i: _times(a0, bi, one) for i, bi in gb.items()}
    for i, ai in ga.items():
        prod = _times(ai, b0, one)
        grad[i] = grad[i] + prod if i in grad else prod
    return (a0 * b0 if need else None), grad


def _grad_compose(fn, a, ctx):
    """``fn`` (a ``univariate_series`` name) of a: s0, and s1·a_i per partial.

    s1 is computed only when a has partials.
    """
    a0, ga = a
    series = univariate_series(fn, a0, 1 if ga else 0, ctx)
    return series[0], {i: _times(series[1], ai, ctx.one) for i, ai in ga.items()}


def _forward(node, xs, ctx, need):
    """(value, grad) of a node at the context floats ``xs``, by forward mode.

    The value is computed when ``need`` is set, and otherwise may be None.
    A summand inherits its caller's ``need``, and so does the other operand
    of a literal factor or divisor, since a literal has no partials for
    that value to multiply.  Every other product operand, every divisor
    and every call argument is valued.  Every node is still visited, and
    the values whose checks can fail (divisors, call arguments) are all
    computed, so every error is raised as with every value computed.
    """
    if isinstance(node, Const):
        return ctx.const(node.text), {}
    if isinstance(node, Var):
        return xs[node.index], {node.index: ctx.one}
    if isinstance(node, Neg):
        a0, ga = _forward(node.arg, xs, ctx, need)
        return (-a0 if need else None), {i: -ai for i, ai in ga.items()}
    if isinstance(node, BinOp):
        if node.op in "+-":
            op = operator.add if node.op == "+" else operator.sub
            left = _forward(node.left, xs, ctx, need)
            return _grad_sum(left, _forward(node.right, xs, ctx, need), op, need)
        left_need = need if _is_literal(node.right) else True
        right_need = need if node.op == "*" and _is_literal(node.left) else True
        left = _forward(node.left, xs, ctx, left_need)
        right = _forward(node.right, xs, ctx, right_need)
        if node.op == "/":
            right = _grad_compose("recip", right, ctx)
        return _grad_mul(left, right, ctx.one, need)
    if isinstance(node, Power):
        n = node.exponent
        # ^1 is its base; ^0 reads nothing of it but still evaluates it, for its errors
        base = _forward(node.base, xs, ctx, n > 1 or (n == 1 and need))
        if n == 0:
            return ctx.one, {}
        # binary_power's products, counted down: the last one is the power,
        # whose value is read only if ``need``; every earlier one is a factor
        left = iter(range(n.bit_length() + n.bit_count() - 2, 0, -1))
        return binary_power(
            base, n, lambda a, b: _grad_mul(a, b, ctx.one, need or next(left) > 1)
        )
    if isinstance(node, Call):
        return _grad_compose(node.fn, _forward(node.arg, xs, ctx, True), ctx)
    raise TypeError(f"not an expression node: {node!r}")


def eval_partials(e: Expr, xs, ctx: Context) -> dict:
    """First partials of an expression at the context floats ``xs`` (forward mode).

    Returns a dict from a variable index to its partial; a constant
    subtree has no entries.  Every operation replays the degree-1 jet
    arithmetic of ``eval_jet``, so the partials are bit for bit the jet's,
    and a fault raises the jet's error class and message.  Its own rule is
    the sparse product sum a0·b_i + a_i·b0; the rest is ``taylor``'s: a
    quotient is a·(1/b) (not ``eval_scalar``'s a/b) and a call is
    s0 + s1·t, both from ``univariate_series``, and ``^`` is
    ``binary_power``.  A factor that is ``ctx.one`` itself, the exact 1 a
    variable's partial starts from, is not multiplied by: the other factor
    is taken as it is.  Only the values the partials read are computed: a
    value is read by a product whose other operand is not a literal, by a
    divisor, a powered base and a call's argument.  So the affine summands
    of an equation give their partials without their values.
    """
    return _forward(e, xs, ctx, False)[1]
