"""Multivariate truncated Taylor polynomials (jets) over context floats.

A jet stores every Taylor coefficient of a function around an expansion
point up to a total degree, using the coefficient convention
``coeff(alpha) = (mixed partial of order alpha) / alpha!`` so that
multiplication is a plain truncated convolution.  Propagating jets through
an expression yields exact derivatives of any order, which is what feeds
the scheme builder.  ``univariate_series`` (elementary functions and the
reciprocal) and ``binary_power`` serve every evaluator in ``expr``.

``jet_mul`` skips only work whose result is exact, so every coefficient
keeps the bits of the schoolbook convolution (every nonzero product
added, in the same order, to an exact 0): it walks a cached table of
coefficient positions, takes each output's first product as its value
rather than adding it to 0, and computes the mirror products a_i·a_j and
a_j·a_i of a square once.  ``binary_power`` starts from the base, not
from 1·base, and Horner composition adds each series coefficient to the
constant term alone.  A constant is a degree-0 jet: a constant factor
or divisor is a ``jet_mul`` with its constant jet, and the composition
of a constant jet reads its series at degree 0 alone.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import islice

from .errors import DivisionByZeroJetError, DomainError, ShapeMismatchError
from .numerics import Context


@lru_cache(maxsize=None)
def multi_indices(nvars: int, max_degree: int):
    """Every exponent tuple with total degree <= max_degree, graded-lex order."""
    if nvars < 1 or max_degree < 0:
        raise ValueError("need nvars >= 1 and max_degree >= 0")

    def gen(k, budget):
        if k == 0:
            yield ()
            return
        for head in range(budget + 1):
            for tail in gen(k - 1, budget - head):
                yield (head,) + tail

    idx = sorted(gen(nvars, max_degree), key=lambda t: (sum(t), t))
    assert len(idx) == math.comb(nvars + max_degree, max_degree)
    return tuple(idx)


class TaylorPoly:
    """Dense truncated Taylor polynomial in ``nvars`` variables.

    ``coeffs`` is stored as given.  Its keys are every key of
    ``multi_indices(nvars, max_degree)``, in that order; every producer in
    this package builds the full table, so the constructor does not
    rebuild or re-check it.  Instances are immutable after construction;
    all operations are pure functions returning fresh polynomials.
    """

    __slots__ = ("ctx", "nvars", "max_degree", "coeffs")

    def __init__(self, ctx: Context, nvars: int, max_degree: int, coeffs: dict):
        self.ctx = ctx
        self.nvars = nvars
        self.max_degree = max_degree
        self.coeffs = coeffs

    def value(self):
        """Constant term: the underlying function value at the expansion point."""
        return self.coeffs[(0,) * self.nvars]

    def homogeneous_part(self, degree: int) -> "TaylorPoly":
        zero = self.ctx.zero
        keep = {a: c if sum(a) == degree else zero for a, c in self.coeffs.items()}
        return TaylorPoly(self.ctx, self.nvars, self.max_degree, keep)

    def __repr__(self):
        return f"TaylorPoly(nvars={self.nvars}, max_degree={self.max_degree})"


def _zeros(ctx: Context, nvars: int, max_degree: int) -> dict:
    return dict.fromkeys(multi_indices(nvars, max_degree), ctx.zero)


def jet_constant(ctx: Context, value, nvars: int, max_degree: int) -> TaylorPoly:
    coeffs = _zeros(ctx, nvars, max_degree)
    coeffs[(0,) * nvars] = ctx.mp.mpf(value)
    return TaylorPoly(ctx, nvars, max_degree, coeffs)


def jet_var(ctx: Context, i: int, base, nvars: int, max_degree: int) -> TaylorPoly:
    """The jet of the coordinate function x_i around the value ``base``."""
    if not 0 <= i < nvars:
        raise ShapeMismatchError(f"variable index {i} out of range for {nvars} vars")
    coeffs = _zeros(ctx, nvars, max_degree)
    coeffs[(0,) * nvars] = ctx.mp.mpf(base)
    if max_degree >= 1:
        unit = tuple(1 if j == i else 0 for j in range(nvars))
        coeffs[unit] = ctx.one
    return TaylorPoly(ctx, nvars, max_degree, coeffs)


def _check_same_shape(a: TaylorPoly, b: TaylorPoly):
    if a.nvars != b.nvars or a.max_degree != b.max_degree:
        raise ShapeMismatchError(
            f"jet shape mismatch: ({a.nvars},{a.max_degree}) vs ({b.nvars},{b.max_degree})"
        )
    if a.ctx is not b.ctx:
        # mixed-context arithmetic corrupts precision silently; refuse it
        raise ShapeMismatchError("jets belong to different precision contexts")


def jet_add(a: TaylorPoly, b: TaylorPoly) -> TaylorPoly:
    _check_same_shape(a, b)
    return TaylorPoly(
        a.ctx,
        a.nvars,
        a.max_degree,
        {alpha: c + b.coeffs[alpha] for alpha, c in a.coeffs.items()},
    )


def jet_sub(a: TaylorPoly, b: TaylorPoly) -> TaylorPoly:
    _check_same_shape(a, b)
    return TaylorPoly(
        a.ctx,
        a.nvars,
        a.max_degree,
        {alpha: c - b.coeffs[alpha] for alpha, c in a.coeffs.items()},
    )


def jet_neg(a: TaylorPoly) -> TaylorPoly:
    return TaylorPoly(
        a.ctx, a.nvars, a.max_degree, {alpha: -c for alpha, c in a.coeffs.items()}
    )


@lru_cache(maxsize=None)
def _product_table(nvars: int, max_degree: int):
    """The coefficient pairs a truncated product visits, by position.

    Row j lists (k, o, s) for every position k of ``multi_indices`` whose
    key adds to key j within the degree bound, o being the position of the
    sum.  Rows and entries keep the schoolbook order (a's keys outer, b's
    inner), so each output sums its products in that order.  s numbers
    the mirror pair {j, k} of a square: -1 on the diagonal, otherwise the
    same slot for (j, k) and (k, j).
    """
    keys = multi_indices(nvars, max_degree)
    where = {key: pos for pos, key in enumerate(keys)}
    degrees = [sum(key) for key in keys]
    slots = {}
    rows = []
    for j, ka in enumerate(keys):
        row = []
        for k, kb in enumerate(keys):
            if degrees[j] + degrees[k] <= max_degree:
                o = where[tuple(x + y for x, y in zip(ka, kb))]
                s = -1 if j == k else slots.setdefault((min(j, k), max(j, k)), len(slots))
                row.append((k, o, s))
        rows.append(tuple(row))
    return tuple(rows), len(slots)


def jet_mul(a: TaylorPoly, b: TaylorPoly) -> TaylorPoly:
    """Truncated convolution: terms above max_degree are discarded.

    Bit for bit the schoolbook product: products with a zero factor are
    skipped, each output's first product becomes its value, and when
    ``a is b`` each mirror product is computed once and used twice.
    """
    _check_same_shape(a, b)
    ctx, n, d = a.ctx, a.nvars, a.max_degree
    rows, nslots = _product_table(n, d)
    ac = [c if c else None for c in a.coeffs.values()]
    out = [None] * len(ac)
    if a is b:
        saved = [None] * nslots
        for j, (aj, row) in enumerate(zip(ac, rows)):
            if aj is None:
                continue
            for k, o, s in row:
                ak = ac[k]
                if ak is None:
                    continue
                if k > j:
                    prod = saved[s] = aj * ak
                elif k < j:
                    prod = saved[s]
                else:
                    prod = aj * ak
                cur = out[o]
                out[o] = prod if cur is None else cur + prod
    else:
        bc = [c if c else None for c in b.coeffs.values()]
        for aj, row in zip(ac, rows):
            if aj is None:
                continue
            for k, o, _ in row:
                bk = bc[k]
                if bk is not None:
                    prod = aj * bk
                    cur = out[o]
                    out[o] = prod if cur is None else cur + prod
    zero = ctx.zero
    coeffs = dict(zip(multi_indices(n, d), (zero if c is None else c for c in out)))
    return TaylorPoly(ctx, n, d, coeffs)


def _compose_series(series, a: TaylorPoly) -> TaylorPoly:
    """Horner evaluation of sum_k series[k]*(a - a0)^k, truncated.

    A one-term series is the constant jet of series[0].  a - a0 has a
    zero constant term, so each Horner product does too, and adding
    series[k] touches the constant term alone.  The products are fresh
    jets no caller has seen, so that add is done in place.
    """
    ctx, n, d = a.ctx, a.nvars, a.max_degree
    if len(series) == 1:
        return jet_constant(ctx, series[0], n, d)
    origin = (0,) * n
    shifted_coeffs = dict(a.coeffs)
    shifted_coeffs[origin] = ctx.zero
    shifted = TaylorPoly(ctx, n, d, shifted_coeffs)
    result = jet_mul(jet_constant(ctx, series[-1], n, d), shifted)
    result.coeffs[origin] += series[-2]
    for k in range(len(series) - 3, -1, -1):
        result = jet_mul(result, shifted)
        result.coeffs[origin] += series[k]
    return result


def jet_recip(a: TaylorPoly) -> TaylorPoly:
    """Multiplicative inverse truncated to max_degree (the ``recip`` series)."""
    return jet_compose_univariate("recip", a)


def binary_power(a, n: int, mul):
    """a^n for n >= 1 under the product ``mul``, starting from a, not 1·a."""
    result = None
    while n:
        if n & 1:
            result = a if result is None else mul(result, a)
        n >>= 1
        if n:
            a = mul(a, a)
    return result


def jet_pow_int(a: TaylorPoly, exponent: int) -> TaylorPoly:
    """Non-negative integer power: ``binary_power`` under ``jet_mul``."""
    if not isinstance(exponent, int) or exponent < 0:
        raise DomainError(f"integer power needs a non-negative exponent, got {exponent}")
    if exponent == 0:
        return jet_constant(a.ctx, a.ctx.one, a.nvars, a.max_degree)
    return binary_power(a, exponent, jet_mul)


def checked_divisor(c):
    """``c``; the zero check of every division, here and in ``expr``."""
    if c == 0:
        raise DivisionByZeroJetError("division by zero")
    return c


def _over_factorial(v, k: int):
    """v / k!, where the division by 0! = 1! = 1 is exact and skipped."""
    return v if k < 2 else v / math.factorial(k)


def univariate_series(fn: str, c, d: int, ctx: Context) -> list:
    """Taylor coefficients s_0..s_d of ``fn`` at ``c``.

    ``fn`` is exp, log, sqrt, sin, cos or recip (1/t).  ``eval_scalar``
    reads s_0, ``eval_partials`` s_0 and s_1 and jet composition all, so
    the three raise the same errors and agree bit for bit.  s_0 (for sin
    and cos, the cycle from one ``cos_sin``) comes from ``ctx.elementary``:
    one evaluation per argument and Context.  Only work that changes a bit
    is done: s_0 and s_1 are not divided by 0! and 1!, and sin and cos
    negate only the cycle entries up to degree d.
    """
    if fn == "recip":
        inv_c = ctx.one / checked_divisor(c)
        series = [inv_c]
        for _ in range(d):
            series.append(-series[-1] * inv_c)
        return series
    if fn in ("log", "sqrt") and c <= 0:
        raise DomainError(f"{fn} of a non-positive value")
    if fn == "exp":
        ec = ctx.elementary("exp", c)
        return [_over_factorial(ec, k) for k in range(d + 1)]
    if fn == "log":
        series = [ctx.elementary("log", c)]
        for k in range(1, d + 1):
            series.append((-1) ** (k - 1) / (k * c**k))
        return series
    if fn == "sqrt":
        series = [ctx.elementary("sqrt", c)]
        for k in range(1, d + 1):
            # ratio of consecutive binomial-series coefficients of c^(1/2)
            series.append(series[-1] * (ctx.mp.mpf(3) / 2 - k) / (k * c))
        return series
    if fn in ("sin", "cos"):
        cos_c, sin_c = ctx.elementary("cos_sin", c)
        shift = 0 if fn == "sin" else 1  # cos starts one derivative later
        cycle = [sin_c, cos_c]
        # the negated half, as far as degree d reads it
        cycle += [-v for v in cycle[: max(0, d + shift - 1)]]
        return [_over_factorial(cycle[(k + shift) % 4], k) for k in range(d + 1)]
    raise DomainError(f"unsupported elementary function: {fn!r}")


def jet_compose_univariate(fn: str, a: TaylorPoly) -> TaylorPoly:
    """Jet of ``fn`` (exp, log, sqrt, sin, cos or recip) applied to ``a``.

    The univariate Taylor coefficients of ``fn`` at the constant term feed a
    Horner composition with ``a - const``.  A constant ``a`` (a literal,
    or a sweep from a point whose residual is exactly 0) leaves every term
    of degree >= 1 an exact 0, so its series is built to degree 0 alone: a
    literal divisor costs one division.  Integer powers are not series
    compositions; they go through :func:`jet_pow_int`.
    """
    degree = a.max_degree if any(islice(a.coeffs.values(), 1, None)) else 0
    return _compose_series(univariate_series(fn, a.value(), degree, a.ctx), a)


def jet_partial(a: TaylorPoly, i: int) -> TaylorPoly:
    """Formal partial derivative; the degree budget drops by one."""
    if not 0 <= i < a.nvars:
        raise ShapeMismatchError(f"variable index {i} out of range")
    if a.max_degree == 0:
        return jet_constant(a.ctx, a.ctx.zero, a.nvars, 0)
    new_d = a.max_degree - 1
    out = {}
    for alpha in multi_indices(a.nvars, new_d):
        src = tuple(e + 1 if j == i else e for j, e in enumerate(alpha))
        out[alpha] = a.coeffs[src] * (alpha[i] + 1)
    return TaylorPoly(a.ctx, a.nvars, new_d, out)
