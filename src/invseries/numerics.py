"""Arbitrary-precision scalars and the minimal dense linear algebra.

Every numeric value in a solve is an mpmath binary float owned by exactly
one :class:`Context`.  Values from different contexts must never be mixed
in one computation; the context fixes the working precision for the whole
pipeline (scalars, vectors, matrices and jets alike).
"""

from __future__ import annotations

import decimal
import re

from mpmath.ctx_mp import MPContext
from mpmath.libmp import ften, from_int, from_rational, ln2_fixed, ln10_fixed
from mpmath.libmp import mpf_mul, mpf_pow_int, to_int
from mpmath.libmp import round_ceiling, round_floor, round_nearest

from .errors import MalformedDecimalError, ShapeMismatchError, SingularMatrixError

DEFAULT_PRECISION = 1000

# sign, integer digits, fraction digits, exponent sign and digits; the
# lookahead asks for a digit before the exponent
_DECIMAL_RE = re.compile(r"([+-]?)(?=\.?\d)(\d*)(?:\.(\d*))?(?:[eE]([+-]?)(\d+))?\Z")

# mpmath rounds a decimal whose exponent is beyond this through 10^exp
_EXACT_EXPONENT = 400


# One mpmath context per precision, shared by every Context of that
# precision; building one costs about 0.4 ms and 40 KB of cyclic garbage.
_MP_CONTEXTS: dict[int, MPContext] = {}

# entries of one Context's elementary-function memo; a step of an n-variable
# system needs about one per elementary call in its n equations
ELEMENTARY_MEMO_SIZE = 1024


def is_int(value) -> bool:
    """An int, not a bool: what a precision, an order and an iteration cap are."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_precision(precision) -> None:
    """Refuse a precision that is not an int (``is_int``) of at least 16 digits."""
    if not is_int(precision):
        raise ValueError(f"precision must be an int, got {precision!r}")
    if precision < 16:
        raise ValueError(f"precision must be >= 16 decimal digits, got {precision}")


class Context:
    """Working precision (decimal digits) plus its mpmath context.

    A Context is created once per solve and threaded through every
    constructor.  ``mp`` is shared by every Context of the same precision,
    so it must never be mutated: nothing may set its ``dps`` or ``prec``
    or enter its ``workdps``/``workprec``, since that would change the
    precision of every live Context of that precision (a test greps
    ``src/`` for such uses).  Two Contexts of one precision are still
    distinct: jets refuse to mix them.  A Context stores no threshold of
    its own: each power of ten, the LU pivot floor included, comes from
    ``pow10``.  Values are immutable after construction and safe to hand
    between threads; ``const``, ``pow10``, ``elementary`` and the lazy
    coefficients of a ``jet_mul`` product only memoize, so two threads
    that race on one entry both store the same value.  ``elementary``
    keeps each Context's own memo, so two Contexts of one precision share
    no entries.
    """

    def __init__(self, precision: int = DEFAULT_PRECISION):
        check_precision(precision)
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
        self._consts = {}
        self._pow10 = {}
        self._elementary = {}

    def const(self, text: str):
        """The context float of decimal text, parsed once per text: the one
        parser of literals, start and root values and a text ``tol``.  It
        has the bits of ``mp.mpf(text)`` (``decimal_mpf``) at any length."""
        value = self._consts.get(text)
        if value is None:
            value = self._consts[text] = self.mp.make_mpf(decimal_mpf(text, self.mp.prec))
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
        """10^exponent at working precision, computed once per exponent."""
        value = self._pow10.get(exponent)
        if value is None:
            value = self._pow10[exponent] = self.mp.mpf(10) ** exponent
        return value

    def __repr__(self):
        return f"Context(precision={self.precision})"


# digits per int(str) call: within 640, the smallest digit limit Python allows
_INT_CHUNK = 600


def _digits_int(digits: str) -> int:
    """The int of a digit string of any length ("" is 0), read in chunks,
    since int(str) refuses more than the interpreter's digit limit."""
    value = 0
    for start in range(0, len(digits), _INT_CHUNK):
        chunk = digits[start : start + _INT_CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def decimal_mpf(text: str, prec: int):
    """The raw mpf of a signed decimal literal (optional exponent), rounded
    to nearest at ``prec`` bits: the bits of mpmath's ``from_str``.

    The fraction's trailing zeros are dropped and its digits folded into
    the exponent.  An exponent beyond ±400 is applied as mpmath does, by a
    product with 10^exp rounded at ``prec`` + 10 bits; a smaller one gives
    the exactly rounded integer or quotient.  So a literal beyond ±400 is
    rounded twice, and about 2 in 3,000 of them are not correctly rounded;
    that is kept, so that text means what ``mp.mpf`` reads.  A correctly
    rounded value is unique, so a dyadic quotient (such as 1.0625) is
    rounded as an integer and shifted, which skips the long division.
    Unlike mpmath, no digit string is read through ``int(str)``, so a
    literal of any length parses whatever the interpreter's digit limit,
    and an empty part is 0.
    """
    match = _DECIMAL_RE.fullmatch(text.strip())
    if match is None:
        raise MalformedDecimalError(f"not a decimal literal: {text!r}")
    sign, whole, frac, exp_sign, exp_digits = match.groups("")
    frac = frac.rstrip("0")
    man = _digits_int(whole + frac)
    exp = _digits_int(exp_digits)
    if sign == "-":
        man = -man
    if exp_sign == "-":
        exp = -exp
    exp -= len(frac)
    if abs(exp) > _EXACT_EXPONENT:
        scale = mpf_pow_int(ften, exp, prec + 10)
        return mpf_mul(from_int(man, prec + 10), scale, prec, round_nearest)
    if exp >= 0:
        return from_int(man * 10**exp, prec, round_nearest)
    # man / 10^k with 5^k | man is the integer man / 5^k times 2^-k; most
    # other literals fail the cheap test by 5 first
    if man and man % 5 == 0:
        quotient, rest = divmod(man, 5**-exp)
        if not rest:
            sign, bits, shift, bc = from_int(quotient, prec, round_nearest)
            return sign, bits, shift + exp, bc
    return from_rational(man, 10**-exp, prec, round_nearest)


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

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def sub(self, other: "MPVector") -> "MPVector":
        if self.dim != other.dim:
            raise ShapeMismatchError(f"dim mismatch: {self.dim} vs {other.dim}")
        return MPVector(a - b for a, b in zip(self.entries, other.entries))

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

    def __repr__(self):
        return f"{type(self).__name__}({self.rows}x{self.cols})"


def _lu_factor(m: MPMatrix, ctx: Context):
    """LU with partial pivoting; returns (packed LU rows, permutation).

    A pivot counts as zero at or below 10^-d times the largest entry of its
    row in ``m``, with d = ⌈precision/2⌉ (``Context.pow10``; the error names
    10^-d), and is the largest entry among the rows that clear that floor,
    so scaling an equation moves its floor with it.
    """
    n = m.rows
    lu = [list(row) for row in m.entries]
    perm = list(range(n))
    d = (ctx.precision + 1) // 2
    tiny = ctx.pow10(-d)
    floors = [tiny * max(abs(e) for e in row) for row in lu]
    for col in range(n):
        # sizes[i] belongs to row col + i: the rows still to be pivoted
        sizes = [abs(lu[r][col]) for r in range(col, n)]
        best = max(range(n - col), key=lambda i: (sizes[i] > floors[col + i], sizes[i]))
        pivot_row = col + best
        if sizes[best] <= floors[pivot_row]:
            raise SingularMatrixError(f"column {col} pivot below 10^-{d} of its row's scale")
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
    if m.rows != m.cols:
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


def _scaled_floor(man: int, exp: int, bc: int, k: int, w: int) -> int:
    """floor(man·2^exp·10^k) for man > 0 of ``bc`` bits.

    Beyond |exp| = 8·``w`` the exact integers dwarf the mantissa, so the
    product is bounded at ``w`` bits rounded down and up (``mpf_pow_int``
    keeps the direction, for k < 0 too), and q is their floor if they share
    it.  Else q is exact: a power of ten, a shift and, if k < 0, a division.
    """
    if abs(exp) > 8 * w:
        x = (0, man, exp, bc)
        floors = {
            to_int(mpf_mul(x, mpf_pow_int(ften, k, w, rnd), w, rnd), round_floor)
            for rnd in (round_floor, round_ceiling)
        }
        if len(floors) == 1:
            return floors.pop()
    q = man * 10**k if k > 0 else man
    q = q << exp if exp >= 0 else q >> -exp
    return q // 10**-k if k < 0 else q


def format_scalar(x, sig_digits: int, strip_zeros: bool = False) -> str:
    """Render ``<mantissa>e<exp>`` with the mantissa truncated toward zero.

    Truncation (not rounding) is exact: with |x| = man·2^exp and the
    decimal exponent e10 of |x|, the digits are the integer
    q = floor(man·10^k·2^exp), k = sig_digits − 1 − e10 (``_scaled_floor``).
    e10 starts from the bit length and is right once 10^(sig_digits−1) <=
    q < 10^sig_digits.  So the output is deterministic and byte-identical
    across runs, and q of any length is written out through ``decimal``.
    """
    if sig_digits < 1:
        raise ValueError("sig_digits must be positive")
    if x == 0:
        return "0"
    sign, man, exp, bc = x._mpf_
    if not man:
        raise ValueError(f"cannot format a non-finite value: {x}")
    man = int(man)
    low = 10 ** (sig_digits - 1)
    # bounds this wide leave q's ~3.3·sig_digits bits far inside them
    w = bc + 4 * sig_digits + 64
    # floor(log10 2^top) to within one, from log10 2 in fixed point at 64
    # bits beyond top's length: a float estimate is off by about 10^6 at
    # top = 10^22, and ``_scaled_floor`` would then need integers of
    # 10^22 bits
    top = exp + bc - 1
    m = top.bit_length() + 64
    e10 = top * ((ln2_fixed(m) << m) // ln10_fixed(m)) >> m
    while True:
        q = _scaled_floor(man, exp, bc, sig_digits - 1 - e10, w)
        if q >= low:
            break
        e10 -= 1  # float rounding put the estimate above log10|x|
    high = low * 10
    while q >= high:
        # floor(floor(y) / 10) = floor(y / 10): one digit fewer is exact
        q //= 10
        e10 += 1
    digits = str(decimal.Decimal(q))
    if strip_zeros:
        digits = digits.rstrip("0") or "0"
    mantissa = digits[0] if len(digits) == 1 else f"{digits[0]}.{digits[1:]}"
    return f"{'-' if sign else ''}{mantissa}e{e10}"
