"""Problem definitions: expression ASTs, a line-oriented file format, and
evaluation over both scalars and jets.

File format (UTF-8, ``#`` starts a comment, keys in this order)::

    vars: <name> <name> ...
    eq: <expression>              # one per variable, in order
    start: <decimal> ...
    root: <decimal> ...           # optional, repeatable

Operator precedence, tightest first: ``^`` (non-negative integer literal
exponents only), unary minus, ``* /``, ``+ -``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import (
    DomainError,
    MalformedDecimalError,
    NonSquareSystemError,
    ParseError,
    UnknownVariableError,
)
from .numerics import Context, MPVector, scalar_from_decimal
from .taylor import (
    TaylorPoly,
    jet_add,
    jet_compose_univariate,
    jet_constant,
    jet_mul,
    jet_neg,
    jet_pow_int,
    jet_recip,
    jet_sub,
    jet_var,
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


# --- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str, line: int):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r}", line)
            break
        pos = m.end()
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup)))
    return tokens


class _ExprParser:
    def __init__(self, tokens, var_indices, line):
        self.tokens = tokens
        self.var_indices = var_indices
        self.line = line
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def advance(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, text = self.advance()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}, found {text!r}", self.line)

    def parse(self) -> Expr:
        e = self.parse_sum()
        kind, text = self.peek()
        if kind is not None:
            raise ParseError(f"trailing input starting at {text!r}", self.line)
        return e

    def parse_sum(self) -> Expr:
        e = self.parse_term()
        while True:
            kind, text = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                e = BinOp(text, e, self.parse_term())
            else:
                return e

    def parse_term(self) -> Expr:
        e = self.parse_unary()
        while True:
            kind, text = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                e = BinOp(text, e, self.parse_unary())
            else:
                return e

    def parse_unary(self) -> Expr:
        kind, text = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.parse_unary())
        if kind == "op" and text == "+":
            self.advance()
            return self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        kind, text = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            ekind, etext = self.advance()
            if ekind != "num" or not re.fullmatch(r"\d+", etext):
                raise ParseError(
                    f"exponent must be a non-negative integer literal, found {etext!r}",
                    self.line,
                )
            nkind, ntext = self.peek()
            if nkind == "op" and ntext == "^":
                raise ParseError("chained '^' needs parentheses", self.line)
            return Power(base, int(etext))
        return base

    def parse_atom(self) -> Expr:
        kind, text = self.advance()
        if kind == "num":
            return Const(text)
        if kind == "name":
            nkind, ntext = self.peek()
            if nkind == "op" and ntext == "(":
                if text not in RESERVED_FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", self.line)
                self.advance()
                arg = self.parse_sum()
                self.expect_op(")")
                return Call(text, arg)
            if text not in self.var_indices:
                raise UnknownVariableError(f"unknown variable {text!r}", self.line)
            return Var(self.var_indices[text], text)
        if kind == "op" and text == "(":
            e = self.parse_sum()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {text!r}", self.line)


def parse_expression(text: str, var_indices: dict, line: int = 0) -> Expr:
    tokens = _tokenize(text, line)
    if not tokens:
        raise ParseError("empty expression", line)
    return _ExprParser(tokens, var_indices, line).parse()


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

    ``start`` and ``root`` values are resolved at working precision here;
    ``Const`` nodes keep their literal text and are parsed again on every
    evaluation.
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
            if equations or start is not None:
                raise ParseError("vars must come first", lineno)
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
    """Evaluate an expression at a point at working precision."""
    mp = ctx.mp
    if isinstance(e, Const):
        return scalar_from_decimal(e.text, ctx)
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
        if abs(right) < ctx.tiny:
            raise ZeroDivisionError("division by (numerically) zero")
        return left / right
    if isinstance(e, Power):
        return eval_scalar(e.base, point, ctx) ** e.exponent
    if isinstance(e, Call):
        arg = eval_scalar(e.arg, point, ctx)
        if e.fn in ("log", "sqrt") and arg <= 0:
            raise DomainError(f"{e.fn} of a non-positive value")
        return getattr(mp, e.fn)(arg)
    raise TypeError(f"not an expression node: {e!r}")


def eval_jet(e: Expr, point: MPVector, max_degree: int, ctx: Context) -> TaylorPoly:
    """Jet of an expression around a point, truncated at max_degree."""
    n = point.dim

    def rec(node) -> TaylorPoly:
        if isinstance(node, Const):
            return jet_constant(ctx, scalar_from_decimal(node.text, ctx), n, max_degree)
        if isinstance(node, Var):
            return jet_var(ctx, node.index, point[node.index], n, max_degree)
        if isinstance(node, Neg):
            return jet_neg(rec(node.arg))
        if isinstance(node, BinOp):
            left, right = rec(node.left), rec(node.right)
            if node.op == "+":
                return jet_add(left, right)
            if node.op == "-":
                return jet_sub(left, right)
            if node.op == "*":
                return jet_mul(left, right)
            return jet_mul(left, jet_recip(right))
        if isinstance(node, Power):
            return jet_pow_int(rec(node.base), node.exponent)
        if isinstance(node, Call):
            return jet_compose_univariate(node.fn, rec(node.arg))
        raise TypeError(f"not an expression node: {node!r}")

    return rec(e)


# --- pretty printing ---------------------------------------------------------

_LEVEL_SUM, _LEVEL_TERM, _LEVEL_UNARY, _LEVEL_POWER, _LEVEL_ATOM = range(5)


def _fmt(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        return e.text, _LEVEL_ATOM
    if isinstance(e, Var):
        return e.name, _LEVEL_ATOM
    if isinstance(e, Neg):
        inner, lvl = _fmt(e.arg)
        if lvl < _LEVEL_UNARY:
            inner = f"({inner})"
        return f"-{inner}", _LEVEL_UNARY
    if isinstance(e, BinOp):
        own = _LEVEL_SUM if e.op in "+-" else _LEVEL_TERM
        left, llvl = _fmt(e.left)
        right, rlvl = _fmt(e.right)
        if llvl < own:
            left = f"({left})"
        # binary ops parse left-associatively, so an equal-level right child
        # must keep its parentheses for the tree to survive a round trip
        if rlvl <= own:
            right = f"({right})"
        return f"{left} {e.op} {right}", own
    if isinstance(e, Power):
        base, blvl = _fmt(e.base)
        if blvl < _LEVEL_ATOM:
            base = f"({base})"
        return f"{base}^{e.exponent}", _LEVEL_POWER
    if isinstance(e, Call):
        inner, _ = _fmt(e.arg)
        return f"{e.fn}({inner})", _LEVEL_ATOM
    raise TypeError(f"not an expression node: {e!r}")


def format_expr(e: Expr) -> str:
    """Render an AST so that re-parsing yields a structurally identical tree."""
    return _fmt(e)[0]
