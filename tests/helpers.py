"""Matrix, jet and update helpers that only the tests need."""

import decimal
import math
from fractions import Fraction
from functools import reduce
from itertools import product

from invseries.errors import ShapeMismatchError, SingularMatrixError
from invseries.expr import BinOp, Call, Const, Power, Var
from invseries.numerics import Context, MPMatrix, MPVector
from invseries.scheme import (
    apply_update,
    build_terms,
    evaluate_system,
    jacobian_series,
    series_matrix_inverse,
)
from invseries.solver import DIVERGENCE_WINDOW
from invseries.taylor import TaylorPoly, jet_add, jet_mul, jet_partial, multi_indices


class CountingMP:
    """Wraps an mpmath context and records its elementary-function calls
    as (name, argument bits)."""

    def __init__(self, mp):
        self.mp, self.calls = mp, []

    def __getattr__(self, name):
        attr = getattr(self.mp, name)
        if name not in ("exp", "log", "sqrt", "sin", "cos", "cos_sin"):
            return attr

        def counted(x):
            self.calls.append((name, x._mpf_))
            return attr(x)

        return counted


def counting_context(precision: int) -> Context:
    """A fresh Context whose elementary-function calls are recorded in
    ``ctx.mp.calls``; the shared mpmath context is left as it is."""
    ctx = Context(precision)
    ctx.mp = CountingMP(ctx.mp)
    return ctx


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


def reference_lu_invert(m: MPMatrix, ctx: Context) -> MPMatrix:
    """Plain LU inversion, the reference ``numerics.lu_invert`` must match bit
    for bit: the same pivot rule, every reciprocal and pivot size computed,
    and each unit vector solved forward and back in full, from row 0.
    """
    n = m.rows
    lu = [list(row) for row in m.entries]
    perm = list(range(n))
    tiny = ctx.pow10(-((ctx.precision + 1) // 2))
    floors = [tiny * max(abs(e) for e in row) for row in lu]
    for col in range(n):
        sizes = [abs(row[col]) for row in lu]
        pivot_row = max(range(col, n), key=lambda r: (sizes[r] > floors[r], sizes[r]))
        if sizes[pivot_row] <= floors[pivot_row]:
            raise SingularMatrixError(f"column {col} pivot below its row's floor")
        if pivot_row != col:
            lu[col], lu[pivot_row] = lu[pivot_row], lu[col]
            perm[col], perm[pivot_row] = perm[pivot_row], perm[col]
            floors[col], floors[pivot_row] = floors[pivot_row], floors[col]
        inv_pivot = ctx.one / lu[col][col]
        for r in range(col + 1, n):
            factor = lu[r][col] * inv_pivot
            lu[r][col] = factor
            for c in range(col + 1, n):
                lu[r][c] -= factor * lu[col][c]
    cols = []
    for j in range(n):
        x = [ctx.one if perm[i] == j else ctx.zero for i in range(n)]
        for i in range(n):
            for k in range(i):
                x[i] -= lu[i][k] * x[k]
        for i in reversed(range(n)):
            for k in range(i + 1, n):
                x[i] -= lu[i][k] * x[k]
            x[i] /= lu[i][i]
        cols.append(x)
    return MPMatrix(tuple(cols[j][i] for j in range(n)) for i in range(n))


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


def schoolbook_jet_mul(a, b):
    """Truncated convolution, every nonzero product added to an exact 0.

    The reference for ``taylor.jet_mul``, which must match it bit for bit:
    a's keys outer, b's keys inner, each product added to its output in
    that order.
    """
    d = a.max_degree
    out = dict.fromkeys(multi_indices(a.nvars, d), a.ctx.zero)
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


def truncated(a, new_degree: int):
    """The jet ``a`` with every term above ``new_degree`` dropped."""
    if new_degree > a.max_degree:
        raise ShapeMismatchError("cannot truncate to a higher degree")
    keep = {alpha: c for alpha, c in a.coeffs.items() if sum(alpha) <= new_degree}
    return TaylorPoly(a.ctx, a.nvars, new_degree, keep)


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


def neg_f(problem, point) -> MPVector:
    """The direction of the solver's step from ``point``: -f(point)."""
    return MPVector(-v for v in evaluate_system(problem, point))


def update(problem, point, order) -> MPVector:
    """One order-k step of the solver's update from ``point``, along -f(point)."""
    terms = build_terms(problem, point, neg_f(problem, point), order - 1)
    return apply_update(terms, point)


def tensor_update(problem, point, order) -> MPVector:
    """The same step in the paper's form, as an independent reference.

    Every entry of every tensor is built: T_1 is the inverse-Jacobian
    series X and T_(p+1)[idx + (c,)] is the sum over s of
    X[s, c] · d_s T_p[idx].  Each T_p is then contracted with -f one slot
    at a time and enters with weight 1/p!.
    """
    n, m = problem.nvars, order - 1
    X = series_matrix_inverse(jacobian_series(problem, point, m - 1))
    tensor = {(i, j): X.at(i, j) for i in range(n) for j in range(n)}
    tensors = [tensor]
    for p in range(1, m):
        xt = {
            (s, c): truncated(X.at(s, c), m - p - 1)
            for s, c in product(range(n), repeat=2)
        }
        nxt = {}
        for idx in product(range(n), repeat=p + 1):
            partials = [jet_partial(tensor[idx], s) for s in range(n)]
            for c in range(n):
                nxt[idx + (c,)] = reduce(
                    jet_add, (jet_mul(xt[(s, c)], partials[s]) for s in range(n))
                )
        tensor = nxt
        tensors.append(tensor)
    v = neg_f(problem, point)
    new = list(point)
    for p, tensor in enumerate(tensors, start=1):
        current = {idx: q.value() for idx, q in tensor.items()}
        for rank in range(p, 0, -1):
            current = {
                idx: sum(current[idx + (j,)] * v[j] for j in range(n))
                for idx in product(range(n), repeat=rank)
            }
        for i in range(n):
            new[i] += current[(i,)] / math.factorial(p)
    return MPVector(new)


_LEVEL_SUM, _LEVEL_TERM, _LEVEL_UNARY, _LEVEL_POWER, _LEVEL_ATOM = range(5)


def _fmt(e) -> tuple[str, int]:
    if isinstance(e, Const):
        # a signed literal parses as one only where a unary minus may stand
        return e.text, _LEVEL_UNARY if e.text.startswith("-") else _LEVEL_ATOM
    if isinstance(e, Var):
        return e.name, _LEVEL_ATOM
    if isinstance(e, BinOp):
        own = _LEVEL_SUM if e.op in "+-" else _LEVEL_TERM
        left, llvl = _fmt(e.left)
        right, rlvl = _fmt(e.right)
        if llvl < own:
            left = f"({left})"
        # binary ops parse left-associatively, so an equal-level right child
        # must keep its parentheses for the tree to survive a round trip
        if rlvl <= own:
            right = f"({right})"
        return f"{left} {e.op} {right}", own
    if isinstance(e, Power):
        base, blvl = _fmt(e.base)
        if blvl < _LEVEL_ATOM:
            base = f"({base})"
        return f"{base}^{e.exponent}", _LEVEL_POWER
    if isinstance(e, Call):
        inner, _ = _fmt(e.arg)
        return f"{e.fn}({inner})", _LEVEL_ATOM
    raise TypeError(f"not an expression node: {e!r}")


def format_expr(e) -> str:
    """Render an AST so that re-parsing yields a structurally identical tree."""
    return _fmt(e)[0]


def counter_stop(step_norms, tol) -> tuple[int, str]:
    """How a solve whose steps have these norms stops, decided by the
    counters the loop once kept: (steps taken, status value).

    The reference for ``solver.diverged``; the step budget is
    ``len(step_norms)``.
    """
    first_step_norm = prev_step_norm = None
    increase_run = 0
    for it, snorm in enumerate(step_norms, start=1):
        if snorm <= tol:
            return it, "converged"
        if first_step_norm is None:
            first_step_norm = snorm
        if prev_step_norm is not None and snorm > prev_step_norm:
            increase_run += 1
        else:
            increase_run = 0
        if increase_run >= DIVERGENCE_WINDOW and snorm > first_step_norm:
            return it, "diverged"
        prev_step_norm = snorm
    return len(step_norms), "max-iters"


def reference_format_scalar(x, sig_digits: int, strip_zeros: bool = False) -> str:
    """``numerics.format_scalar`` in ``Fraction`` arithmetic: x's exact
    rational value scaled by 10 until one digit is left of the point."""
    if sig_digits < 1:
        raise ValueError("sig_digits must be positive")
    if x == 0:
        return "0"
    sign, man, exp, bc = x._mpf_
    fr = Fraction(int(man)) * Fraction(2) ** exp
    e10 = math.floor((exp + bc - 1) * math.log10(2))
    scaled = fr / Fraction(10) ** e10
    while scaled >= 10:
        scaled /= 10
        e10 += 1
    while scaled < 1:
        scaled *= 10
        e10 -= 1
    digits = str(decimal.Decimal(int(scaled * 10 ** (sig_digits - 1))))
    if strip_zeros:
        digits = digits.rstrip("0") or "0"
    mantissa = digits[0] if len(digits) == 1 else f"{digits[0]}.{digits[1:]}"
    return f"{'-' if sign else ''}{mantissa}e{e10}"
