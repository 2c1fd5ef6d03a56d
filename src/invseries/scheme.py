"""Order-k update construction.

The update of convergence order k adds m = k-1 series terms
T_p[v, ..., v] / p! along v = -f(x).  T_1 is the inverse Jacobian and
T_(p+1) contracts it with the x-derivative of T_p; the contraction with v
is carried inside that recursion, so no tensor is formed.  Carrying every
entry as a truncated Taylor polynomial makes the derivatives exact series
differentiation, so no closed-form derivative-of-inverse formulas are
needed at any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from .errors import SchemeSizeError, ShapeMismatchError
from .expr import Problem, eval_jet, eval_scalar
from .numerics import MPMatrix, MPVector, lu_invert
from .taylor import (
    TaylorPoly,
    jet_add,
    jet_constant,
    jet_mul,
    jet_neg,
    jet_partial,
)

MAX_ORDER = 8
MAX_VARS = 8


@dataclass(frozen=True)
class SchemeSpec:
    """Target convergence order k >= 2; the update keeps k-1 series terms."""

    order: int

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"order must be at least 2, got {self.order}")
        if self.order > MAX_ORDER:
            raise SchemeSizeError(
                f"order {self.order} exceeds the supported maximum {MAX_ORDER}"
            )

    @property
    def terms(self) -> int:
        return self.order - 1


class SeriesMatrix:
    """Square grid of Taylor polynomials sharing nvars and degree.

    The entries' shapes are not checked here: the first jet operation that
    mixes two of them does that.
    """

    __slots__ = ("entries", "n", "degree", "nvars")

    def __init__(self, entries):
        rows = tuple(tuple(r) for r in entries)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ShapeMismatchError("series matrix must be square")
        first = rows[0][0]
        self.entries = rows
        self.n = n
        self.degree = first.max_degree
        self.nvars = first.nvars

    def at(self, i: int, j: int) -> TaylorPoly:
        return self.entries[i][j]

    def constant_matrix(self) -> MPMatrix:
        return MPMatrix(
            tuple(self.entries[i][j].value() for j in range(self.n))
            for i in range(self.n)
        )

    def __repr__(self):
        return f"SeriesMatrix(n={self.n}, degree={self.degree})"


def jacobian_series(problem: Problem, point: MPVector, budget_degree: int) -> SeriesMatrix:
    """Entry (j, i) is the jet of the partial of equation j along variable i."""
    if budget_degree < 0:
        raise ValueError("budget_degree must be >= 0")
    ctx = problem.context
    jets = [eval_jet(eq, point, budget_degree + 1, ctx) for eq in problem.equations]
    n = problem.nvars
    return SeriesMatrix(
        tuple(jet_partial(jets[j], i) for i in range(n)) for j in range(n)
    )


def _mat_add(a, b):
    return [[jet_add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _dot(a, b):
    """Sum of the products of two equally long jet sequences, left to right."""
    return reduce(jet_add, map(jet_mul, a, b))


def _mat_mul(a, b):
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


def series_matrix_inverse(J: SeriesMatrix) -> SeriesMatrix:
    """Truncated series X with J·X = I, built order by order.

    The constant part is inverted numerically; the homogeneous part of
    degree q is -X0 · sum over r of (J_r · X_{q-r}).
    """
    ctx = J.at(0, 0).ctx
    n, d, nvars = J.n, J.degree, J.nvars
    X0_num = lu_invert(J.constant_matrix(), ctx)
    X0 = [
        [jet_constant(ctx, X0_num.at(i, j), nvars, d) for j in range(n)]
        for i in range(n)
    ]
    if d == 0:
        return SeriesMatrix(X0)
    j_parts = {
        r: [[J.at(i, j).homogeneous_part(r) for j in range(n)] for i in range(n)]
        for r in range(1, d + 1)
    }
    x_parts = [X0]
    for q in range(1, d + 1):
        acc = reduce(
            _mat_add, (_mat_mul(j_parts[r], x_parts[q - r]) for r in range(1, q + 1))
        )
        xq = _mat_mul(X0, acc)
        x_parts.append([[jet_neg(e) for e in row] for row in xq])
    return SeriesMatrix(reduce(_mat_add, x_parts))


def build_terms(
    problem: Problem, point: MPVector, spec: SchemeSpec, direction: MPVector
) -> list[MPVector]:
    """Terms U_p = T_p[v, ..., v] for p = 1..m at a point, m = spec.terms.

    v is constant in x, so it commutes with the derivatives: with X the
    inverse-Jacobian series and w = X·v, U_1 = w and U_(p+1)[i] is the sum
    over s of w_s · d_s U_p[i].  Each step spends one degree of the budget
    m-1, so the last term needs only its constant part.
    """
    n = problem.nvars
    if n > MAX_VARS:
        raise SchemeSizeError(f"{n} variables exceed the supported maximum {MAX_VARS}")
    if point.dim != n or direction.dim != n:
        raise ShapeMismatchError("point or direction dimension differs from nvars")
    m = spec.terms
    X = series_matrix_inverse(jacobian_series(problem, point, m - 1))
    v = [jet_constant(problem.context, c, n, m - 1) for c in direction]
    w = [_dot(row, v) for row in X.entries]
    levels = [w]
    for p in range(1, m):
        ws = [q.truncated(m - p - 1) for q in w]
        partials = [[jet_partial(q, s) for s in range(n)] for q in levels[-1]]
        levels.append([_dot(ws, row) for row in partials])
    return [MPVector(q.value() for q in level) for level in levels]


def apply_update(terms: list[MPVector], point: MPVector) -> MPVector:
    """One fixed-point step, x + sum over p of U_p / p!."""
    new_entries = list(point)
    for p, term in enumerate(terms, start=1):
        fact = math.factorial(p)
        new_entries = [x + u / fact for x, u in zip(new_entries, term)]
    return MPVector(new_entries)


def evaluate_system(problem: Problem, point: MPVector) -> MPVector:
    """All equation values at a point."""
    ctx = problem.context
    return MPVector(eval_scalar(eq, point, ctx) for eq in problem.equations)
