"""Built-in benchmark problems.

Each builtin is generated as problem-file text and goes through the
regular parser, so the corpus exercises the same code path as user files.
Irrational root coordinates are materialized at the requested precision
(plus guard digits) when the problem is built.
"""

from __future__ import annotations

from .expr import Problem, parse_problem
from .numerics import Context, format_scalar

_TWO_VAR = """\
# symmetric two-variable system: one affine equation, one circle
vars: x1 x2
eq: x1 - x2
eq: x1^2 + x2^2 - 2
start: 4 4
root: 1 1
root: -1 -1
"""

_SCALAR_SQUARE = """\
# one-variable square-root benchmark
vars: x
eq: x^2 - 1
start: 4
root: 1
root: -1
"""

_AFFINE_3 = """\
# affine 3x3 system; any order lands on the root in one step
vars: x1 x2 x3
eq: x1 + 2*x2 + x3
eq: 2*x1 - x2 - x3
eq: 5*x1 + x3 - 6
start: 2.1 2.2 -1
root: 0.6 -1.8 3
"""


def _three_var_text(ctx: Context) -> str:
    """incas-3var at the context's precision, its roots written out as text.

    The roots are (r, -3r, 5r) and (-r, 3r, -5r) with 35 r^2 = 3.  r, 3r
    and 5r are each formatted once, with 25 guard digits from a context 30
    digits finer; a negative coordinate is "-" and the positive one's
    text, which is what ``format_scalar`` gives for its negation.
    """
    scratch = Context(ctx.precision + 30)
    r = scratch.mp.sqrt(scratch.mp.mpf(3) / 35)
    digits = ctx.precision + 25
    r1, r3, r5 = (format_scalar(v, digits) for v in (r, 3 * r, 5 * r))
    pos = [r1, f"-{r3}", r5]
    neg = [f"-{r1}", r3, f"-{r5}"]
    return (
        "# two affine equations and a sphere\n"
        "vars: x1 x2 x3\n"
        "eq: x1 + 2*x2 + x3\n"
        "eq: 2*x1 - x2 - x3\n"
        "eq: x1^2 + x2^2 + x3^2 - 3\n"
        "start: 2.1 2.2 -1\n"
        f"root: {' '.join(pos)}\n"
        f"root: {' '.join(neg)}\n"
    )


_BUILDERS = {
    "incas-2var": lambda ctx: _TWO_VAR,
    "incas-3var": _three_var_text,
    "scalar-square": lambda ctx: _SCALAR_SQUARE,
    "affine-3": lambda ctx: _AFFINE_3,
}

BUILTIN_NAMES = tuple(sorted(_BUILDERS))


def builtin_problem(name: str, ctx: Context) -> Problem:
    """Build and parse a named corpus problem at the context's precision."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None
    return parse_problem(builder(ctx), ctx)
