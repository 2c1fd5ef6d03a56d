"""Arbitrary-precision scalars and the minimal dense linear algebra.

Every numeric value in a solve is an mpmath binary float owned by exactly
one :class:`Context`.  Values from different contexts must never be mixed
in one computation; the context fixes the working precision for the whole
pipeline (scalars, vectors, matrices and jets alike).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from mpmath.ctx_mp import MPContext

from .errors import MalformedDecimalError, ShapeMismatchError, SingularMatrixError

DEFAULT_PRECISION = 1000

_DECIMAL_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?\Z")


class Context:
    """Working precision (decimal digits) plus its private mpmath context.

    A Context is created once per solve and threaded through every
    constructor; there is no ambient global precision state.  Values are
    immutable after construction and safe to hand between threads.
    """

    def __init__(self, precision: int = DEFAULT_PRECISION):
        precision = int(precision)
        if precision < 16:
            raise ValueError(f"precision must be >= 16 decimal digits, got {precision}")
        self.precision = precision
        mp = MPContext()
        mp.dps = precision
        self.mp = mp
        self.zero = mp.mpf(0)
        self.one = mp.mpf(1)
        # magnitude below which a pivot or jet constant term is treated as zero
        self.tiny = mp.mpf(10) ** (-precision / 2)

    def pow10(self, exponent: int):
        return self.mp.mpf(10) ** exponent

    def __repr__(self):
        return f"Context(precision={self.precision})"


def scalar_from_decimal(text: str, ctx: Context):
    """Parse a signed decimal literal (optional exponent) at working precision."""
    text = text.strip()
    if not _DECIMAL_RE.fullmatch(text):
        raise MalformedDecimalError(f"not a decimal literal: {text!r}")
    return ctx.mp.mpf(text)


class MPVector:
    """Immutable dense vector of context floats."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(entries)
        if not self.entries:
            raise ShapeMismatchError("a vector needs at least one entry")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def sub(self, other: "MPVector") -> "MPVector":
        self._check(other)
        return MPVector(a - b for a, b in zip(self.entries, other.entries))

    def _check(self, other):
        if self.dim != other.dim:
            raise ShapeMismatchError(f"dim mismatch: {self.dim} vs {other.dim}")

    def __repr__(self):
        return f"MPVector(dim={self.dim})"


def norm_inf(v: MPVector):
    """Max-magnitude entry; scalarizes step and residual vectors."""
    return max(abs(e) for e in v.entries)


class MPMatrix:
    """Immutable dense matrix stored as a tuple of row tuples."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, rows_of_entries):
        rows = tuple(tuple(r) for r in rows_of_entries)
        if not rows or not rows[0]:
            raise ShapeMismatchError("a matrix needs at least one row and column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ShapeMismatchError("ragged rows in matrix literal")
        self.entries = rows
        self.rows = len(rows)
        self.cols = ncols

    def at(self, r: int, c: int):
        return self.entries[r][c]

    def row(self, r: int):
        return self.entries[r]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __repr__(self):
        return f"MPMatrix({self.rows}x{self.cols})"


def _lu_factor(m: MPMatrix, ctx: Context):
    """LU with partial pivoting; returns (packed LU rows, permutation)."""
    n = m.rows
    lu = [list(m.row(i)) for i in range(n)]
    perm = list(range(n))
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(lu[r][col]))
        if abs(lu[pivot_row][col]) < ctx.tiny:
            raise SingularMatrixError(
                f"pivot magnitude below 10^-{ctx.precision // 2} in column {col}"
            )
        if pivot_row != col:
            lu[col], lu[pivot_row] = lu[pivot_row], lu[col]
            perm[col], perm[pivot_row] = perm[pivot_row], perm[col]
        inv_pivot = ctx.one / lu[col][col]
        for r in range(col + 1, n):
            factor = lu[r][col] * inv_pivot
            lu[r][col] = factor
            for c in range(col + 1, n):
                lu[r][c] -= factor * lu[col][c]
    return lu, perm


def _lu_backsolve(lu, perm, b, ctx: Context):
    n = len(lu)
    y = [b[perm[i]] for i in range(n)]
    for i in range(n):
        for j in range(i):
            y[i] -= lu[i][j] * y[j]
    x = y
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            x[i] -= lu[i][j] * x[j]
        x[i] /= lu[i][i]
    return x


def lu_solve(m: MPMatrix, b: MPVector, ctx: Context) -> MPVector:
    """Solve m·x = b by LU with partial pivoting."""
    if not m.is_square:
        raise ShapeMismatchError("lu_solve needs a square matrix")
    if m.rows != b.dim:
        raise ShapeMismatchError("right-hand side dimension mismatch")
    lu, perm = _lu_factor(m, ctx)
    return MPVector(_lu_backsolve(lu, perm, list(b), ctx))


def lu_invert(m: MPMatrix, ctx: Context) -> MPMatrix:
    """Invert a square matrix; raises SingularMatrixError on tiny pivots.

    The result X satisfies m·X = I to working precision for
    well-conditioned inputs.
    """
    if not m.is_square:
        raise ShapeMismatchError("lu_invert needs a square matrix")
    n = m.rows
    lu, perm = _lu_factor(m, ctx)
    cols = []
    for j in range(n):
        e = [ctx.one if i == j else ctx.zero for i in range(n)]
        cols.append(_lu_backsolve(lu, perm, e, ctx))
    return MPMatrix(tuple(cols[j][i] for j in range(n)) for i in range(n))


def _exact_fraction(x) -> Fraction:
    """The exact rational value of a finite mpmath float."""
    sign, man, exp, _ = x._mpf_
    fr = Fraction(int(man)) * Fraction(2) ** exp
    return -fr if sign else fr


def format_scalar(x, sig_digits: int, strip_zeros: bool = False) -> str:
    """Render ``<mantissa>e<exp>`` with the mantissa truncated toward zero.

    Truncation (not rounding) is exact: digits are extracted by integer
    arithmetic on the binary representation, so output is deterministic
    and byte-identical across runs.
    """
    if sig_digits < 1:
        raise ValueError("sig_digits must be positive")
    if x == 0:
        return "0"
    sign, _, exp, bc = x._mpf_
    fr = abs(_exact_fraction(x))
    e10 = math.floor((exp + bc - 1) * math.log10(2))
    scaled = fr / Fraction(10) ** e10
    while scaled >= 10:
        scaled /= 10
        e10 += 1
    while scaled < 1:
        scaled *= 10
        e10 -= 1
    digits = str(int(scaled * 10 ** (sig_digits - 1)))
    if strip_zeros:
        digits = digits.rstrip("0") or "0"
    mantissa = digits[0] if len(digits) == 1 else f"{digits[0]}.{digits[1:]}"
    return f"{'-' if sign else ''}{mantissa}e{e10}"
