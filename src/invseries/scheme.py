"""Order-k update construction.

The update of convergence order k keeps m = k-1 coefficient tensors.  The
first is the inverse Jacobian; each further tensor contracts the inverse
Jacobian with the x-derivative of the previous one.  Carrying every entry
as a truncated Taylor polynomial makes those derivatives exact series
differentiation, so no closed-form derivative-of-inverse formulas are
needed at any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import product

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


@dataclass(frozen=True)
class SchemeTerm:
    """Coefficient tensor of one series order, at the expansion point.

    ``value`` maps each index tuple (output slot first, then p contraction
    slots) to the constant term of that tensor entry; the update contracts
    nothing else.
    """

    p: int
    value: dict = field(repr=False)


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


def _mat_mul(a, b):
    n = len(a)
    return [
        [
            reduce(jet_add, (jet_mul(a[i][k], b[k][j]) for k in range(n)))
            for j in range(n)
        ]
        for i in range(n)
    ]


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


def build_terms(problem: Problem, point: MPVector, spec: SchemeSpec) -> list[SchemeTerm]:
    """Coefficient tensors T^(1)..T^(m) at a point, m = spec.terms.

    T^(1) is the inverse-Jacobian series with degree budget m-1; each
    recursion step differentiates the previous tensor and contracts with
    the inverse-Jacobian series, spending one degree of budget, so the
    last tensor needs only its constant term.
    """
    n = problem.nvars
    if n > MAX_VARS:
        raise SchemeSizeError(f"{n} variables exceed the supported maximum {MAX_VARS}")
    if point.dim != n:
        raise ShapeMismatchError("point dimension does not match the problem")
    m = spec.terms
    X = series_matrix_inverse(jacobian_series(problem, point, m - 1))
    tensor = {(i, j): X.at(i, j) for i in range(n) for j in range(n)}
    terms = [SchemeTerm(1, {k: q.value() for k, q in tensor.items()})]
    for p in range(1, m):
        new_degree = m - p - 1
        xt = {
            (s, c): X.at(s, c).truncated(new_degree)
            for s in range(n)
            for c in range(n)
        }
        nxt = {}
        for idx in product(range(n), repeat=p + 1):
            partials = [jet_partial(tensor[idx], s) for s in range(n)]
            for c in range(n):
                nxt[idx + (c,)] = reduce(
                    jet_add, (jet_mul(xt[(s, c)], partials[s]) for s in range(n))
                )
        tensor = nxt
        terms.append(SchemeTerm(p + 1, {k: q.value() for k, q in tensor.items()}))
    assert tensor[(0,) * (m + 1)].max_degree == 0
    return terms


def apply_update(terms: list[SchemeTerm], f_at_point: MPVector, point: MPVector) -> MPVector:
    """One fixed-point step: contract each tensor with copies of -f.

    The order-p tensor enters with weight 1/p!; a zero residual therefore
    leaves the point unchanged.
    """
    n = point.dim
    zero = point[0] - point[0]
    neg_f = [-v for v in f_at_point]
    new_entries = list(point)
    for term in terms:
        current = term.value
        rank = term.p + 1
        while rank > 1:
            folded = {}
            for idx in product(range(n), repeat=rank - 1):
                acc = zero
                for j in range(n):
                    acc += current[idx + (j,)] * neg_f[j]
                folded[idx] = acc
            current = folded
            rank -= 1
        fact = math.factorial(term.p)
        for i in range(n):
            new_entries[i] = new_entries[i] + current[(i,)] / fact
    return MPVector(new_entries)


def evaluate_system(problem: Problem, point: MPVector) -> MPVector:
    """All equation values at a point."""
    ctx = problem.context
    return MPVector(eval_scalar(eq, point, ctx) for eq in problem.equations)
