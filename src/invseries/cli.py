"""Command-line interface.

Exit codes: 0 converged (or all order checks passed), 1 usage or input
errors, 2 diverged or iteration cap reached, 3 singular Jacobian.
``order-check`` exits 2 when a row FAILs or a solve that did not converge
gave no estimate (a ``no-data`` row), and 1, before any solve, at 102
digits or fewer (an empty estimator window).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import (
    SOLUTION_DIGITS,
    TABLE_FORMATS,
    check_root,
    estimate_order_known_root,
    estimate_order_successive,
    estimator_window,
    markdown_table,
    render_table,
)
from .corpus import BUILTIN_NAMES, builtin_problem
from .errors import InsufficientDataError, InvseriesError
from .expr import parse_problem
from .numerics import DEFAULT_PRECISION, Context
from .solver import SolveConfig, Status, solve

_STATUS_EXIT = {
    Status.CONVERGED: 0,
    Status.DIVERGED: 2,
    Status.MAX_ITERS: 2,
    Status.SINGULAR_JACOBIAN: 3,
}

ORDER_CHECK_SLACK = 0.2


def _add_problem_flags(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--problem", metavar="PATH", help="problem file to solve")
    src.add_argument(
        "--builtin",
        metavar="NAME",
        help=f"builtin problem, one of: {', '.join(BUILTIN_NAMES)}",
    )


def _add_solve_flags(p):
    p.add_argument("--precision", type=int, default=DEFAULT_PRECISION, metavar="DIGITS")
    p.add_argument("--max-iters", type=int, default=SolveConfig.max_iters, metavar="N")
    p.add_argument("--tol", default=None, metavar="X", help="step-norm stop threshold")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invseries",
        description="Build and run iteration schemes of arbitrary convergence order.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem and print the trace")
    _add_problem_flags(p_solve)
    p_solve.add_argument("--order", type=int, default=2, metavar="K")
    _add_solve_flags(p_solve)
    p_solve.add_argument("--format", choices=TABLE_FORMATS, default="markdown")
    p_solve.add_argument(
        "--digits", type=int, default=SOLUTION_DIGITS, metavar="N",
        help="solution display digits",
    )

    p_tables = sub.add_parser(
        "tables", help="write benchmark traces for orders 2-5 as markdown files"
    )
    p_tables.add_argument(
        "--precision", type=int, default=DEFAULT_PRECISION, metavar="DIGITS"
    )
    p_tables.add_argument("--out-dir", default="tables", metavar="DIR")

    p_check = sub.add_parser(
        "order-check", help="measure convergence orders against their nominal values"
    )
    _add_problem_flags(p_check)
    p_check.add_argument(
        "--orders", default="2,3,4,5", metavar="K,K,...", help="comma-separated orders"
    )
    _add_solve_flags(p_check)
    return parser


def _load_problem(args, ctx: Context):
    if args.builtin is not None:
        return builtin_problem(args.builtin, ctx)
    return parse_problem(Path(args.problem).read_text(encoding="utf-8-sig"), ctx)


def _config(args, order: int) -> SolveConfig:
    return SolveConfig(
        order=order,
        precision=args.precision,
        max_iters=args.max_iters,
        tol=args.tol,
    )


def cmd_solve(args) -> int:
    if args.digits < 1:
        raise ValueError(f"--digits must be positive, got {args.digits}")
    config = _config(args, args.order)
    ctx = Context(args.precision)
    problem = _load_problem(args, ctx)
    trace = solve(problem, config)
    print(render_table(trace, args.digits, args.format))
    # json carries the status in its document; csv keeps stdout to its rows
    if args.format != "json":
        status_out = sys.stderr if args.format == "csv" else sys.stdout
        print(f"status: {trace.status.value}", file=status_out)
    return _STATUS_EXIT[trace.status]


def cmd_tables(args) -> int:
    ctx = Context(args.precision)  # a bad precision fails before --out-dir exists
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    problem = builtin_problem("incas-2var", ctx)
    for order in (2, 3, 4, 5):
        config = SolveConfig(order=order, precision=args.precision)
        trace = solve(problem, config)
        path = out_dir / f"table_order{order}.md"
        path.write_text(render_table(trace) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    return 0


def _order_row(order: int, trace) -> tuple[list, bool]:
    """The order-check cells of one solve, and whether its verdict passes."""
    cells, summaries = [str(order)], []
    estimators = [estimate_order_successive]
    if trace.problem.known_roots:
        estimators.insert(0, estimate_order_known_root)
    else:
        cells.append("no-root")
    for estimate in estimators:
        try:
            summaries.append(estimate(trace).summary)
            cells.append(f"{summaries[-1]:.3f}")
        except InsufficientDataError:
            cells.append("insufficient-data")
    if summaries:
        ok = all(abs(s - order) <= ORDER_CHECK_SLACK for s in summaries)
        return cells + ["ok" if ok else "FAIL"], ok
    ok = trace.status is Status.CONVERGED
    reason = "too few steps in the window" if ok else trace.status.value
    return cells + [f"no-data ({reason})"], ok


def cmd_order_check(args) -> int:
    try:
        orders = [int(tok) for tok in args.orders.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"--orders must be a comma-separated list, got {args.orders!r}")
    if not orders:
        raise ValueError("--orders lists no orders")
    # every config is validated before anything is printed
    configs = [_config(args, order) for order in orders]
    ctx = Context(args.precision)
    estimator_window(ctx)  # an empty window fails before any solve
    problem = _load_problem(args, ctx)
    for root in problem.known_roots:
        check_root(problem, root)
    # every row is decided before anything is printed
    rows = [_order_row(c.order, solve(problem, c)) for c in configs]
    header = ["order", "known_root", "successive", "verdict"]
    print(markdown_table(header, [cells for cells, _ in rows]))
    return 0 if all(ok for _, ok in rows) else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; fold into the error exit code
        return 0 if not exc.code else 1
    handlers = {
        "solve": cmd_solve,
        "tables": cmd_tables,
        "order-check": cmd_order_check,
    }
    try:
        return handlers[args.command](args)
    except (InvseriesError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
