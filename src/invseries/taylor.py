"""Multivariate truncated Taylor polynomials (jets) over context floats.

A jet stores every Taylor coefficient of a function around an expansion
point up to a total degree, using the coefficient convention
``coeff(alpha) = (mixed partial of order alpha) / alpha!`` so that
multiplication is a plain truncated convolution.  Propagating jets through
an expression yields exact derivatives of any order, which is what feeds
the scheme builder.  ``univariate_series`` (elementary functions and the
reciprocal) serves every evaluator in ``expr``; ``binary_power`` raises
the powers of jets and of forward mode, each under its own product.

``jet_mul`` is lazy: its product sums each coefficient when it is first
read, so a path sweep, which reads one coefficient of its outermost
product, sums that coefficient alone.  It skips only work whose result
is exact, so every coefficient keeps the bits of the schoolbook
convolution (every nonzero product added, in the same order, to an
exact 0): each output walks its pairs in a cached table, takes its first
product as its value rather than adding it to 0, and computes the
mirror products a_i·a_j and a_j·a_i of a square once.
``binary_power`` starts from the base, not from 1·base, and Horner
composition adds each series coefficient to the constant term alone.
A constant is a degree-0 jet: a constant factor or divisor is a
``jet_mul`` with its constant jet, and the composition of a constant jet
reads its series at degree 0 alone.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import lru_cache, reduce
from itertools import islice
from operator import add

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

    ``coeffs`` is stored as given: a dict, or the lazy mapping of a
    ``jet_mul`` product.  Its keys are every key of
    ``multi_indices(nvars, max_degree)``, in that order; every producer in
    this package builds the full table, so the constructor does not
    rebuild or re-check it.  Instances are immutable once handed on (only
    ``jet_var`` and ``_compose_series`` write to a fresh jet, before that);
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


def jet_constant(ctx: Context, value, nvars: int, max_degree: int) -> TaylorPoly:
    coeffs = dict.fromkeys(multi_indices(nvars, max_degree), ctx.zero)
    coeffs[(0,) * nvars] = ctx.mp.mpf(value)
    return TaylorPoly(ctx, nvars, max_degree, coeffs)


def jet_var(ctx: Context, i: int, base, nvars: int, max_degree: int) -> TaylorPoly:
    """The jet of the coordinate function x_i around the value ``base``:
    the constant jet of ``base`` with a 1 at the unit key of x_i."""
    if not 0 <= i < nvars:
        raise ShapeMismatchError(f"variable index {i} out of range for {nvars} vars")
    jet = jet_constant(ctx, base, nvars, max_degree)
    if max_degree >= 1:
        jet.coeffs[tuple(1 if j == i else 0 for j in range(nvars))] = ctx.one
    return jet


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
def _product_table(nvars: int, max_degree: int) -> dict:
    """The coefficient pairs each output of a truncated product sums.

    Key o maps to every pair (j, k) of ``multi_indices`` keys with
    j + k = o, in ascending order of j: the schoolbook order (a's keys
    outer, b's inner), in which that output adds its products.  k falls
    as j rises, so the pairs with j < k come first, then j = k if o has
    one, then the mirrors (k, j) of the first ones in reverse order.
    """
    keys = multi_indices(nvars, max_degree)
    table = {key: [] for key in keys}
    for ka in keys:
        for kb in keys:
            if sum(ka) + sum(kb) > max_degree:
                break  # the keys are graded: every later kb is of this degree or more
            table[tuple(x + y for x, y in zip(ka, kb))].append((ka, kb))
    return {key: tuple(pairs) for key, pairs in table.items()}


class _Product(Mapping):
    """The coefficients of a truncated product, each summed on first read.

    Reading key o sums o's products (``_product_table``) from the
    factors' coefficients and memoizes the sum.  A lazy factor is read
    through its own ``__getitem__``, so a chain of products costs one
    Python frame per level, as deep as the recursion that built it; the
    sum is written out in ``__getitem__`` for that reason, with no helper
    or comprehension between the reads.  Every output keeps the bits of the
    schoolbook sum: a product with a zero factor is skipped, the first
    product is the value (an output with none is ``ctx.zero``), and in a
    square each mirror pair is multiplied once and added twice, the
    second time in the reversed half after the diagonal.  Two threads
    that race on a read both store the same value.
    """

    __slots__ = ("_a", "_b", "_pairs", "_zero", "_done")

    def __init__(self, a: TaylorPoly, b: TaylorPoly, pairs: dict):
        self._a = a.coeffs
        self._b = a.coeffs if a is b else b.coeffs
        self._pairs = pairs  # _product_table of the shape, keys in order
        self._zero = a.ctx.zero
        self._done = {}

    def __getitem__(self, key):
        value = self._done.get(key)
        if value is not None:
            return value
        pairs = self._pairs[key]
        a, b = self._a, self._b
        terms = []
        if a is b:
            half = len(pairs) // 2
            for ka, kb in pairs[:half]:
                x = a[ka]
                if x:
                    y = a[kb]
                    if y:
                        terms.append(x * y)
            mirrors = terms[::-1]
            if len(pairs) % 2:
                x = a[pairs[half][0]]
                if x:
                    terms.append(x * x)
            terms += mirrors
        else:
            for ka, kb in pairs:
                x = a[ka]
                if x:
                    y = b[kb]
                    if y:
                        terms.append(x * y)
        value = self._done[key] = reduce(add, terms) if terms else self._zero
        return value

    def __setitem__(self, key, value):
        self._done[key] = value

    def __iter__(self):
        return iter(self._pairs)

    def __len__(self):
        return len(self._pairs)


def jet_mul(a: TaylorPoly, b: TaylorPoly) -> TaylorPoly:
    """Truncated convolution: terms above max_degree are discarded.

    The product is lazy: its ``coeffs`` (``_Product``) sums each
    coefficient on first read, so a sweep that reads one coefficient of
    its outermost product sums that one alone, and reads the inner
    products in full.  Bit for bit the schoolbook product: products with
    a zero factor are skipped, each output's first product becomes its
    value, and when ``a is b`` each mirror product is computed once and
    used twice.

    Laziness is safe because a jet handed to ``jet_mul`` is never
    mutated afterwards, so a late read sees the factors it was given.
    ``_compose_series`` mutates only its newest product, before it
    passes it on.
    """
    _check_same_shape(a, b)
    n, d = a.nvars, a.max_degree
    return TaylorPoly(a.ctx, n, d, _Product(a, b, _product_table(n, d)))


def _compose_series(series, a: TaylorPoly) -> TaylorPoly:
    """Horner evaluation of sum_k series[k]*(a - a0)^k, truncated.

    A one-term series is the constant jet of series[0].  a - a0 has a
    zero constant term, so each Horner product does too, and adding
    series[k] touches the constant term alone.  The products are fresh
    jets no caller has seen, so that add is done in place, before the
    product is handed to the next ``jet_mul`` or returned.
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
    compositions: the jet evaluator raises them by ``binary_power``.
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
