"""Empirical convergence-order estimation and trace rendering.

Order estimates are log-ratio measurements taken inside a usable window:
magnitudes must sit strictly between 10^(-precision+100) (above the
precision floor) and 10^-2 (past the pre-asymptotic phase), and every
order measurement here refuses a precision that leaves it empty (102
digits or fewer).  Errors are distances to the known root nearest the
last iterate.  An estimate is anchored at an iteration inside the window;
the successor it needs must also sit above the floor, since a saturated
iterate carries only rounding residue.  Summaries are medians, which
keeps the single boundary iteration from dominating.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
from dataclasses import dataclass

from .errors import InsufficientDataError, within_depth
from .expr import eval_jet
from .numerics import MPVector, format_scalar, norm_inf
from .scheme import build_terms, check_order, evaluate_system
from .solver import IterationTrace


@dataclass(frozen=True)
class OrderEstimate:
    """One estimator's per-iteration orders, their median and its anchors;
    which estimator made it is the function that returned it."""

    estimates: tuple  # (iteration, p_hat) pairs
    summary: float
    window: tuple  # anchor iteration indices


def estimator_window(ctx):
    """(lower, upper) bounds of the usable window; ValueError if it is empty."""
    lower, upper = ctx.pow10(-ctx.precision + 100), ctx.pow10(-2)
    if not lower < upper:
        raise ValueError(
            f"precision {ctx.precision} is too low to estimate orders: the usable "
            f"window ({format_scalar(lower, 3)}, {format_scalar(upper, 3)}) is empty"
        )
    return lower, upper


def _log_ratio(ctx, a, b) -> float:
    """log(a) / log(b) for positive context floats, as a float.

    Each log is taken to 64 bits; mpmath raises its own working precision
    where log cancels near 1, so the quotient keeps double accuracy there.
    """
    return float(ctx.mp.ln(a, prec=64) / ctx.mp.ln(b, prec=64))


def check_root(problem, root: MPVector) -> None:
    """Refuse a root whose residual does not sit below the estimator window;
    ``evaluate_system`` raises ``InvseriesError`` on too deep an expression."""
    lower, _ = estimator_window(problem.context)
    root_residual = norm_inf(evaluate_system(problem, root))
    if not root_residual < lower:
        raise ValueError(
            f"supplied root has residual {format_scalar(root_residual, 5)}; "
            "not accurate enough for error measurements"
        )


def _errors_to_root(trace: IterationTrace):
    """The checked known root nearest the last iterate, and each distance to it."""
    problem = trace.problem
    if not problem.known_roots:
        raise ValueError("the problem has no known root to measure against")
    root = min(problem.known_roots, key=lambda r: norm_inf(trace.rows[-1].x.sub(r)))
    check_root(problem, root)
    return root, [norm_inf(row.x.sub(root)) for row in trace.rows]


def _usable_pairs(errors, lower, upper) -> list:
    """Every n whose error lies inside the window and whose successor's
    lies above the floor: iterates that have saturated leave only
    rounding residue behind."""
    return [
        n
        for n in range(len(errors) - 1)
        if lower < errors[n] < upper and errors[n + 1] > lower
    ]


def estimate_order_known_root(trace: IterationTrace) -> OrderEstimate:
    """Per-iteration p = log e(n+1) / log e(n) on distances to a known root."""
    ctx = trace.problem.context
    lower, upper = estimator_window(ctx)
    _, errors = _errors_to_root(trace)
    anchors = [n for n, e in enumerate(errors) if lower < e < upper]
    if len(anchors) < 3:
        raise InsufficientDataError(
            f"only {len(anchors)} iterations inside the usable window (need 3)"
        )
    estimates = [
        (n, _log_ratio(ctx, errors[n + 1], errors[n]))
        for n in _usable_pairs(errors, lower, upper)
    ]
    if not estimates:
        raise InsufficientDataError("no anchor has a usable successor error")
    summary = statistics.median(p for _, p in estimates)
    return OrderEstimate(tuple(estimates), summary, tuple(anchors))


def estimate_order_successive(trace: IterationTrace) -> OrderEstimate:
    """Root-free estimate from step norms: log(s(n+1)/s(n)) / log(s(n)/s(n-1))."""
    ctx = trace.problem.context
    lower, upper = estimator_window(ctx)
    steps = trace.step_norms()
    if len(steps) < 4:
        raise InsufficientDataError(f"only {len(steps)} steps recorded (need 4)")
    estimates = []
    anchors = []
    for k in range(1, len(steps) - 1):
        s_prev, s, s_next = steps[k - 1], steps[k], steps[k + 1]
        if not lower < s < upper:
            continue
        anchors.append(k + 1)  # step k belongs to iteration k+1
        if s_prev > 0 and s_next > lower and s != s_prev:
            estimates.append((k + 1, _log_ratio(ctx, s_next / s, s / s_prev)))
    if not estimates:
        raise InsufficientDataError("no step triple inside the usable window")
    summary = statistics.median(p for _, p in estimates)
    return OrderEstimate(tuple(estimates), summary, tuple(anchors))


def error_constant_check(trace: IterationTrace, order: int):
    """(measured, predicted) asymptotic error constants for a 1-variable trace.

    k is ``order``, the order the trace was solved at.  Measured is
    e(n+1)/e(n)^k at the last usable iteration.  Predicted is
    |a_k * f'(root)^k| where a_k is the first series coefficient the
    order-k update drops: x_k = T_k[1, ..., 1] / k!, built at the root
    along the direction 1.  Too deep an expression raises ``InvseriesError``.
    """
    check_order(order)
    problem = trace.problem
    if problem.nvars != 1:
        raise ValueError("error_constant_check needs a 1-variable problem")
    ctx = problem.context
    lower, upper = estimator_window(ctx)
    root, deltas = _errors_to_root(trace)

    anchors = _usable_pairs(deltas, lower, upper)
    if anchors:
        n = anchors[-1]
        measured = deltas[n + 1] / deltas[n] ** order
    elif any(
        deltas[n + 1] <= lower and deltas[n] > 0 for n in range(len(deltas) - 1)
    ):
        measured = ctx.zero  # landed on the root to the precision floor
    else:
        raise InsufficientDataError("no usable error pair in the trace")

    # first dropped coefficient: build one extra term at the root
    a_k = build_terms(problem, root, MPVector([ctx.one]), order)[-1][0]
    # f'(root) is the jet's degree-1 coefficient; reading it runs the lazy jet
    eq = problem.equations[0]
    fprime = within_depth(lambda: eval_jet(eq, root, 1, ctx).coeffs[(1,)])
    predicted = abs(a_k * fprime**order)
    return measured, predicted


TABLE_FORMATS = ("markdown", "csv", "json")
SOLUTION_DIGITS = 50
_STEP_DIGITS = 10


def trace_columns(problem) -> list:
    """A trace table's header; ValueError if a variable repeats a column's name."""
    names = problem.var_names
    header = ["iter", *names, "step_norm", "residual_norm"]
    header += ["error_vs_root"] if problem.known_roots else []
    for name in names:  # a repeated column would lose cells in csv and json
        if header.count(name) > 1:
            raise ValueError(f"variable {name!r} has the name of a trace column")
    return header


def _cells(trace: IterationTrace, sig_digits: int):
    header, roots = trace_columns(trace.problem), trace.problem.known_roots
    body = []
    for n, row in enumerate(trace.rows):
        cells = [str(n)]
        cells += [format_scalar(v, sig_digits, strip_zeros=True) for v in row.x]
        cells.append(
            "-" if row.step_norm is None else format_scalar(row.step_norm, _STEP_DIGITS)
        )
        cells.append(format_scalar(row.residual_norm, _STEP_DIGITS))
        if roots:  # each row's own nearest root, not the estimators' one
            error = min(norm_inf(row.x.sub(root)) for root in roots)
            cells.append(format_scalar(error, _STEP_DIGITS))
        body.append(cells)
    return header, body


def markdown_table(header, body) -> str:
    """A markdown table: the header row, its rule, then one line per row."""
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(cells) + " |" for cells in body]
    return "\n".join(lines)


def render_table(
    trace: IterationTrace, sig_digits: int = SOLUTION_DIGITS, format: str = "markdown"
) -> str:
    """Deterministic text table of a trace.

    Solution columns carry ``sig_digits`` significant digits and the step,
    residual and error columns ten; mantissas are truncated toward zero,
    never rounded, so equal traces render byte-identically.
    """
    if format not in TABLE_FORMATS:
        raise ValueError(f"format must be one of {TABLE_FORMATS}, got {format!r}")
    header, body = _cells(trace, sig_digits)
    if format == "markdown":
        return markdown_table(header, body)
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(body)
        return buf.getvalue().rstrip("\n")
    rows = [dict(zip(header, cells)) for cells in body]
    return json.dumps(
        {"status": trace.status.value, "columns": header, "rows": rows}, indent=2
    )
