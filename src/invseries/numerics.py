"""Arbitrary-precision scalars and the minimal dense linear algebra.

Every numeric value in a solve is an mpmath binary float owned by exactly
one :class:`Context`.  Values from different contexts must never be mixed
in one computation; the context fixes the working precision for the whole
pipeline (scalars, vectors, matrices and jets alike).
"""

from __future__ import annotations

import decimal
import math
import re
from fractions import Fraction

from mpmath.ctx_mp import MPContext

from .errors import MalformedDecimalError, ShapeMismatchError, SingularMatrixError

DEFAULT_PRECISION = 1000

_DECIMAL_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?\Z")


# One mpmath context per precision, shared by every Context of that
# precision; building one costs about 0.4 ms and 40 KB of cyclic garbage.
_MP_CONTEXTS: dict[int, MPContext] = {}

# entries of one Context's elementary-function memo; a step of an n-variable
# system needs about one per elementary call in its n equations
ELEMENTARY_MEMO_SIZE = 1024


class Context:
    """Working precision (decimal digits) plus its mpmath context.

    A Context is created once per solve and threaded through every
    constructor.  ``mp`` is shared by every Context of the same precision,
    so it must never be mutated: nothing may set its ``dps`` or ``prec``
    or enter its ``workdps``/``workprec``, since that would change the
    precision of every live Context of that precision (a test greps
    ``src/`` for such uses).  Two Contexts of one precision are still
    distinct: jets refuse to mix them.  Values are immutable after
    construction and safe to hand between threads; ``const`` and
    ``elementary`` only memoize.  ``elementary`` keeps each Context's own
    memo, so two Contexts of one precision share no entries.
    """

    def __init__(self, precision: int = DEFAULT_PRECISION):
        precision = int(precision)
        if precision < 16:
            raise ValueError(f"precision must be >= 16 decimal digits, got {precision}")
        self.precision = precision
        mp = _MP_CONTEXTS.get(precision)
        if mp is None:
            mp = MPContext()
            mp.dps = precision
            # published only once its precision is set
            mp = _MP_CONTEXTS.setdefault(precision, mp)
        self.mp = mp
        self.zero = mp.mpf(0)
        self.one = mp.mpf(1)
        # zero threshold of an LU pivot, relative to the pivot's row
        self.tiny = mp.mpf(10) ** (-precision / 2)
        self._consts = {}
        self._elementary = {}

    def const(self, text: str):
        """The value of a decimal literal the tokenizer matched, parsed once."""
        value = self._consts.get(text)
        if value is None:
            value = self._consts[text] = self.mp.mpf(text)
        return value

    def elementary(self, fn: str, x):
        """``mp.<fn>(x)`` for fn in exp, log, sqrt and cos_sin, once per argument.

        A step meets each argument several times: in the residual at the
        new iterate, then in the Jacobian and the path sweeps there.  The
        memo holds at most ``ELEMENTARY_MEMO_SIZE`` entries and starts
        over when full.  ``cos_sin`` gives (cos x, sin x), the same bits
        as ``mp.cos(x)`` and ``mp.sin(x)``: mpmath rounds all three from
        one ``mpf_cos_sin``.
        """
        key = (fn, x._mpf_)
        value = self._elementary.get(key)
        if value is None:
            if len(self._elementary) >= ELEMENTARY_MEMO_SIZE:
                self._elementary.clear()
            value = self._elementary[key] = getattr(self.mp, fn)(x)
        return value

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
    """LU with partial pivoting; returns (packed LU rows, permutation).

    A pivot counts as zero at or below ``ctx.tiny`` times the largest entry
    of its row in ``m``, and is the largest entry among the rows that clear
    that floor, so scaling an equation moves its floor with it.
    """
    n = m.rows
    lu = [list(m.row(i)) for i in range(n)]
    perm = list(range(n))
    floors = [ctx.tiny * max(abs(e) for e in row) for row in lu]
    for col in range(n):
        # sizes[i] belongs to row col + i: the rows still to be pivoted
        sizes = [abs(lu[r][col]) for r in range(col, n)]
        best = max(range(n - col), key=lambda i: (sizes[i] > floors[col + i], sizes[i]))
        pivot_row = col + best
        if sizes[best] <= floors[pivot_row]:
            half = f"{ctx.precision // 2}{'.5' if ctx.precision % 2 else ''}"
            raise SingularMatrixError(
                f"column {col} pivot below 10^-{half} of its row's scale"
            )
        if pivot_row != col:
            lu[col], lu[pivot_row] = lu[pivot_row], lu[col]
            perm[col], perm[pivot_row] = perm[pivot_row], perm[col]
            floors[col], floors[pivot_row] = floors[pivot_row], floors[col]
        if col + 1 == n:
            break  # no row below the last pivot needs its reciprocal
        inv_pivot = ctx.one / lu[col][col]
        for r in range(col + 1, n):
            factor = lu[r][col] * inv_pivot
            lu[r][col] = factor
            for c in range(col + 1, n):
                lu[r][c] -= factor * lu[col][c]
    return lu, perm


def lu_invert(m: MPMatrix, ctx: Context) -> MPMatrix:
    """Invert a square matrix; raises SingularMatrixError on tiny pivots.

    The result X satisfies m·X = I to working precision for
    well-conditioned inputs.  Column j solves LU·x = P·e_j, whose 1 sits
    in row q = perm⁻¹(j): the forward solve starts there, since the rows
    above stay an exact 0, row q stays the exact 1 and row i > q starts
    from 0 − L[i][q]·1 = −L[i][q].  Every other sum runs in full, in the
    order of a plain forward and back substitution, so each entry keeps
    that solve's bits.
    """
    if not m.is_square:
        raise ShapeMismatchError("lu_invert needs a square matrix")
    n = m.rows
    lu, perm = _lu_factor(m, ctx)
    cols = []
    for j in range(n):
        q = perm.index(j)
        x = [ctx.zero] * q + [ctx.one]
        for i in range(q + 1, n):
            row = lu[i]
            xi = -row[q]
            for k in range(q + 1, i):
                xi -= row[k] * x[k]
            x.append(xi)
        for i in reversed(range(n)):
            row = lu[i]
            xi = x[i]
            for k in range(i + 1, n):
                xi -= row[k] * x[k]
            x[i] = xi / row[i]
        cols.append(x)
    return MPMatrix(zip(*cols))


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
    # decimal renders an int of any length; str(int) stops at 4,300 digits
    digits = str(decimal.Decimal(int(scaled * 10 ** (sig_digits - 1))))
    if strip_zeros:
        digits = digits.rstrip("0") or "0"
    mantissa = digits[0] if len(digits) == 1 else f"{digits[0]}.{digits[1:]}"
    return f"{'-' if sign else ''}{mantissa}e{e10}"
