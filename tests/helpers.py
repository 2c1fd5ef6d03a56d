"""Matrix and jet helpers that only the tests need."""

import math

from invseries.errors import ShapeMismatchError
from invseries.numerics import Context, MPMatrix, MPVector


def identity(ctx: Context, n: int) -> MPMatrix:
    return MPMatrix(
        tuple(ctx.one if i == j else ctx.zero for j in range(n)) for i in range(n)
    )


def mat_mul(a: MPMatrix, b: MPMatrix) -> MPMatrix:
    if a.cols != b.rows:
        raise ShapeMismatchError("inner dimensions differ")
    return MPMatrix(
        tuple(
            sum(a.at(i, k) * b.at(k, j) for k in range(a.cols)) for j in range(b.cols)
        )
        for i in range(a.rows)
    )


def mat_vec(m: MPMatrix, v: MPVector) -> MPVector:
    if m.cols != v.dim:
        raise ShapeMismatchError(f"matrix cols {m.cols} vs vector dim {v.dim}")
    return MPVector(sum(row[j] * v[j] for j in range(m.cols)) for row in m.entries)


def max_abs_diff(a: MPMatrix, b: MPMatrix):
    """Largest entry-wise difference of two equally shaped matrices."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeMismatchError("shape mismatch")
    pairs = zip(a.entries, b.entries)
    return max(abs(x - y) for ra, rb in pairs for x, y in zip(ra, rb))


def max_coeff_diff(a, b):
    """Largest coefficient-wise difference of two equally shaped jets."""
    if (a.nvars, a.max_degree) != (b.nvars, b.max_degree):
        raise ShapeMismatchError("jet shape mismatch")
    return max(abs(c - b.coeffs[alpha]) for alpha, c in a.coeffs.items())


def derivative_tensor(a, order: int):
    """Raw mixed partials of the given order as nested lists.

    Entry (i_1, ..., i_p) is the partial derivative along those variables,
    recovered from the stored coefficients as coeff(alpha) * alpha!.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    if order > a.max_degree:
        raise ValueError(f"order {order} exceeds the jet degree budget {a.max_degree}")
    if order == 0:
        return a.value()
    n = a.nvars

    def entry(idx):
        alpha = [0] * n
        for i in idx:
            alpha[i] += 1
        fact = math.prod(math.factorial(e) for e in alpha)
        return a.coeffs[tuple(alpha)] * fact

    def nest(depth, prefix):
        if depth == order:
            return entry(prefix)
        return [nest(depth + 1, prefix + (i,)) for i in range(n)]

    return nest(0, ())
