"""Order-k update construction.

The update of convergence order k adds m = k-1 series terms
T_p[v, ..., v] / p! along v = -f(x), where T_p is the p-th derivative of
the local inverse of f.  These terms are the Taylor coefficients x_p of
the path x(t) that solves f(x(t)) = f(x) + t·v, so they are built from
one LU of the Jacobian and one univariate jet sweep of f per
coefficient; no tensor and no series of the inverse is formed.
The Jacobian comes from forward mode (``eval_partials``).  Jet
arithmetic makes every coefficient exact series algebra, so no
closed-form derivative-of-inverse formulas are needed at any order.

``jacobian_series`` (multivariate jets) and ``series_matrix_inverse``
(the paper's inverse-Jacobian series) are the references; the solver
uses neither.  Each equation is evaluated inside ``within_depth``, so an
expression too deep to evaluate raises ``InvseriesError``.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul

from .errors import SchemeSizeError, ShapeMismatchError, within_depth
from .expr import (
    Problem,
    eval_jet,
    eval_partials,
    eval_scalar,
    eval_top,
)
from .numerics import MPMatrix, MPVector, is_int, lu_invert
from .taylor import (
    TaylorPoly,
    jet_add,
    jet_constant,
    jet_mul,
    jet_neg,
    jet_partial,
    multi_indices,
)

MAX_ORDER = 8


def check_order(order: int) -> None:
    """Refuse an order k that is not an int (``is_int``) in 2..``MAX_ORDER``."""
    if not is_int(order):
        raise ValueError(f"order must be an int, got {order!r}")
    if order < 2:
        raise ValueError(f"order must be at least 2, got {order}")
    if order > MAX_ORDER:
        raise SchemeSizeError(
            f"order {order} exceeds the supported maximum {MAX_ORDER}"
        )


class SeriesMatrix(MPMatrix):
    """Matrix of Taylor polynomials sharing nvars and degree.

    The entries' shapes are not checked here: the first jet operation that
    mixes two of them does that.
    """

    __slots__ = ()

    @property
    def degree(self) -> int:
        return self.entries[0][0].max_degree

    def constant_matrix(self) -> MPMatrix:
        return MPMatrix(tuple(e.value() for e in row) for row in self.entries)


def jacobian(problem: Problem, point: MPVector) -> MPMatrix:
    """Entry (j, i) is the partial of equation j along variable i at a point.

    Built by ``eval_partials``, which computes only the values the
    partials read, it is bit for bit
    ``jacobian_series(problem, point, 0).constant_matrix()`` and raises
    what ``eval_jet`` raises at the point.
    """
    ctx = problem.context
    rows = []
    for eq in problem.equations:
        grad = within_depth(eval_partials, eq, point, ctx)
        rows.append([grad.get(i, ctx.zero) for i in range(problem.nvars)])
    return MPMatrix(rows)


def jacobian_series(problem: Problem, point: MPVector, budget_degree: int) -> SeriesMatrix:
    """Entry (j, i) is the jet of the partial of equation j along variable i.

    The multivariate-jet reference; the solve path uses ``jacobian``.
    """
    if budget_degree < 0:
        raise ValueError("budget_degree must be >= 0")
    ctx = problem.context

    def partials(eq):
        jet = eval_jet(eq, point, budget_degree + 1, ctx)
        return [jet_partial(jet, i) for i in range(problem.nvars)]

    return SeriesMatrix(within_depth(partials, eq) for eq in problem.equations)


def _mat_add(a, b):
    return [[jet_add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _mat_mul(a, b):
    cols = list(zip(*b))
    return [[reduce(jet_add, map(jet_mul, row, col)) for col in cols] for row in a]


def series_matrix_inverse(J: SeriesMatrix) -> SeriesMatrix:
    """Truncated series X with J·X = I, built order by order.

    The constant part is inverted numerically; the homogeneous part of
    degree q is -X0 · sum over r of (J_r · X_{q-r}).  ``lu_invert``
    refuses a non-square J.
    """
    ctx = J.at(0, 0).ctx
    n, d, nvars = J.rows, J.degree, J.at(0, 0).nvars
    X0_num = lu_invert(J.constant_matrix(), ctx)
    X0 = [
        [jet_constant(ctx, X0_num.at(i, j), nvars, d) for j in range(n)]
        for i in range(n)
    ]
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


def _mat_vec(m: MPMatrix, v) -> list:
    """m·v, each entry summed left to right from the first product."""
    return [reduce(add, map(mul, row, v)) for row in m.entries]


def build_terms(
    problem: Problem, point: MPVector, direction: MPVector, terms: int
) -> list[MPVector]:
    """Terms x_p = T_p[v, ..., v] / p! for p = 1..m at a point, m = ``terms``.

    The order-k update keeps k-1 terms; the error constant reads one more.

    x_p is the degree-p Taylor coefficient of the path x(t) from the point
    with f(x(t)) = f(point) + t·v.  Degree 1 gives J·x_1 = v.  For p >= 2
    the degree-p coefficient of f(x(t)) vanishes; it is J·x_p + c_p, where
    c_p is that coefficient of f along the path known so far (x_p left 0),
    one univariate jet sweep of degree p.  So x_p = -J^-1·c_p, and one LU
    of J serves every p.  ``eval_top`` computes c_p alone: an affine
    summand adds an exact 0 to it and is not swept, and an affine equation
    has c_p = 0 without a sweep.  Every error the skipped subtrees could
    raise there, ``jacobian`` raises first at the same point.
    """
    if terms < 1:
        raise ValueError(f"terms must be at least 1, got {terms}")
    n = problem.nvars
    if point.dim != n or direction.dim != n:
        raise ShapeMismatchError("point or direction dimension differs from nvars")
    ctx = problem.context
    X0 = lu_invert(jacobian(problem, point), ctx)
    path = [list(point), _mat_vec(X0, direction)]
    for p in range(2, terms + 1):
        keys = multi_indices(1, p)
        seeds = [
            TaylorPoly(ctx, 1, p, dict(zip(keys, (*xs, ctx.zero)))) for xs in zip(*path)
        ]
        c = [within_depth(eval_top, eq, seeds, ctx) for eq in problem.equations]
        path.append([-x for x in _mat_vec(X0, c)])
    return [MPVector(xs) for xs in path[1:]]


def apply_update(terms: list[MPVector], point: MPVector) -> MPVector:
    """One fixed-point step, x + x_1 + ... + x_m, summed left to right."""
    new_entries = list(point)
    for term in terms:
        new_entries = [x + u for x, u in zip(new_entries, term)]
    return MPVector(new_entries)


def evaluate_system(problem: Problem, point: MPVector) -> MPVector:
    """All equation values at a point."""
    if point.dim != problem.nvars:
        raise ShapeMismatchError("point dimension differs from nvars")
    ctx = problem.context
    return MPVector(within_depth(eval_scalar, eq, point, ctx) for eq in problem.equations)
