"""Matrix and jet comparisons that only the tests need."""

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
