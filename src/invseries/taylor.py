"""Multivariate truncated Taylor polynomials (jets) over context floats.

A jet stores every Taylor coefficient of a function around an expansion
point up to a total degree, using the coefficient convention
``coeff(alpha) = (mixed partial of order alpha) / alpha!`` so that
multiplication is a plain truncated convolution.  Propagating jets through
an expression yields exact derivatives of any order, which is what feeds
the scheme builder.  ``univariate_series`` gives the Taylor coefficients
of each elementary function, shared with the gradient evaluator.
"""

from __future__ import annotations

import math
from functools import lru_cache

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

    def truncated(self, new_degree: int) -> "TaylorPoly":
        if new_degree > self.max_degree:
            raise ShapeMismatchError("cannot truncate to a higher degree")
        keep = {
            alpha: c for alpha, c in self.coeffs.items() if sum(alpha) <= new_degree
        }
        return TaylorPoly(self.ctx, self.nvars, new_degree, keep)

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


def jet_mul(a: TaylorPoly, b: TaylorPoly) -> TaylorPoly:
    """Truncated convolution: terms above max_degree are discarded."""
    _check_same_shape(a, b)
    d = a.max_degree
    out = _zeros(a.ctx, a.nvars, d)
    bterms = [(ib, sum(ib), cb) for ib, cb in b.coeffs.items() if cb != 0]
    for ia, ca in a.coeffs.items():
        if ca == 0:
            continue
        da = sum(ia)
        for ib, db, cb in bterms:
            if da + db > d:
                continue
            key = tuple(x + y for x, y in zip(ia, ib))
            out[key] += ca * cb
    return TaylorPoly(a.ctx, a.nvars, d, out)


def _compose_series(series, a: TaylorPoly) -> TaylorPoly:
    """Horner evaluation of sum_k series[k]*(a - a0)^k, truncated."""
    ctx, n, d = a.ctx, a.nvars, a.max_degree
    shifted_coeffs = dict(a.coeffs)
    shifted_coeffs[(0,) * n] = ctx.zero
    shifted = TaylorPoly(ctx, n, d, shifted_coeffs)
    result = jet_constant(ctx, series[-1], n, d)
    for k in range(len(series) - 2, -1, -1):
        result = jet_mul(result, shifted)
        result = jet_add(result, jet_constant(ctx, series[k], n, d))
    return result


def jet_recip(a: TaylorPoly) -> TaylorPoly:
    """Multiplicative inverse truncated to max_degree."""
    c = a.value()
    if c == 0:
        raise DivisionByZeroJetError("jet constant term is zero")
    mp = a.ctx.mp
    inv_c = mp.mpf(1) / c
    series = [inv_c]
    for _ in range(a.max_degree):
        series.append(-series[-1] * inv_c)
    return _compose_series(series, a)


def jet_pow_int(a: TaylorPoly, exponent: int) -> TaylorPoly:
    """Non-negative integer power by binary exponentiation (exact, total)."""
    if not isinstance(exponent, int) or exponent < 0:
        raise DomainError(f"integer power needs a non-negative exponent, got {exponent}")
    result = jet_constant(a.ctx, a.ctx.one, a.nvars, a.max_degree)
    base = a
    e = exponent
    while e:
        if e & 1:
            result = jet_mul(result, base)
        e >>= 1
        if e:
            base = jet_mul(base, base)
    return result


def univariate_series(fn: str, c, d: int, mp) -> list:
    """Taylor coefficients s_0..s_d of ``fn`` (exp, log, sqrt, sin, cos) at ``c``.

    Jet composition and ``expr.eval_gradient`` (which reads s_0 and s_1)
    both take their coefficients from here, so the two agree bit for bit.
    The sin/cos cycle is built from one ``mp.sin`` and one ``mp.cos``.
    """
    if fn == "exp":
        ec = mp.exp(c)
        return [ec / math.factorial(k) for k in range(d + 1)]
    if fn == "log":
        if c <= 0:
            raise DomainError("log of a jet needs a positive constant term")
        series = [mp.log(c)]
        for k in range(1, d + 1):
            series.append((-1) ** (k - 1) / (k * c**k))
        return series
    if fn == "sqrt":
        if c <= 0:
            raise DomainError("sqrt of a jet needs a positive constant term")
        series = [mp.sqrt(c)]
        for k in range(1, d + 1):
            # ratio of consecutive binomial-series coefficients of c^(1/2)
            series.append(series[-1] * (mp.mpf(3) / 2 - k) / (k * c))
        return series
    if fn in ("sin", "cos"):
        sin_c, cos_c = mp.sin(c), mp.cos(c)
        cycle = [sin_c, cos_c, -sin_c, -cos_c]
        shift = 0 if fn == "sin" else 1  # cos starts one derivative later
        return [cycle[(k + shift) % 4] / math.factorial(k) for k in range(d + 1)]
    raise DomainError(f"unsupported elementary function: {fn!r}")


def jet_compose_univariate(fn: str, a: TaylorPoly) -> TaylorPoly:
    """Jet of ``fn`` (one of exp, log, sqrt, sin, cos) applied to ``a``.

    The univariate Taylor coefficients of ``fn`` at the constant term feed a
    Horner composition with ``a - const``.  Integer powers are not series
    compositions; they go through :func:`jet_pow_int`.
    """
    return _compose_series(univariate_series(fn, a.value(), a.max_degree, a.ctx.mp), a)


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
