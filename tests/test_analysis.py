import csv
import io
import json

import pytest

from invseries.analysis import (
    _log_ratio,
    check_root,
    error_constant_check,
    estimate_order_known_root,
    estimate_order_successive,
    markdown_table,
    render_table,
)
from invseries.errors import InsufficientDataError, InvseriesError
from invseries.expr import parse_problem
from invseries.numerics import Context, MPVector, norm_inf
from invseries.scheme import evaluate_system
from invseries.solver import IterationTrace, SolveConfig, Status, TraceRow, solve


def fake_trace(problem, xs):
    """Rows from a prescribed iterate sequence, with genuine steps/residuals."""
    rows = []
    prev = None
    for n, x in enumerate(xs):
        step = None if prev is None else x.sub(prev)
        rows.append(
            TraceRow(
                n,
                x,
                step,
                None if step is None else norm_inf(step),
                norm_inf(evaluate_system(problem, x)),
                None,
            )
        )
        prev = x
    return IterationTrace(problem, rows, Status.CONVERGED)


@pytest.fixture(scope="module")
def scalar_problem(ctx1000):
    return parse_problem("vars: x\neq: x^2 - 1\nstart: 4\nroot: 1\n", ctx1000)


def test_known_root_on_synthetic_quadratic(scalar_problem, ctx1000):
    mp = ctx1000.mp
    one = mp.mpf(1)
    xs = [MPVector([one + ctx1000.pow10(-e)]) for e in (2, 4, 8, 16)]
    est = estimate_order_known_root(fake_trace(scalar_problem, xs))
    assert abs(est.summary - 2) < 1e-10
    for _, p in est.estimates:
        assert abs(p - 2) < 1e-10


@pytest.mark.parametrize(
    "a, b",
    [("1e-300", "1e-150"), ("3.7e-1000", "2e-10"), ("1e-2", "1e-900"),
     ("1.0000001", "0.25"), ("5", "0.9999999999999999999999"), ("0.5", "1.999")],
)
def test_log_ratio_matches_working_precision_logs(ctx1000, a, b):
    mp = ctx1000.mp
    x, y = mp.mpf(a), mp.mpf(b)
    expected = float(mp.log(x) / mp.log(y))
    assert abs(_log_ratio(ctx1000, x, y) - expected) <= 1e-15 * abs(expected)


def test_known_root_insufficient_data(scalar_problem, ctx1000):
    one = ctx1000.one
    xs = [MPVector([one + ctx1000.pow10(-e)]) for e in (2, 4)]
    with pytest.raises(InsufficientDataError):
        estimate_order_known_root(fake_trace(scalar_problem, xs))


def test_known_root_rejects_inaccurate_root(ctx1000):
    p = parse_problem("vars: x\neq: x^2 - 1\nstart: 4\nroot: 1.001\n", ctx1000)
    xs = [MPVector([ctx1000.one + ctx1000.pow10(-e)]) for e in (2, 4, 8, 16)]
    with pytest.raises(ValueError, match="supplied root has residual 2.0009e-3"):
        estimate_order_known_root(fake_trace(p, xs))


def test_known_root_needs_a_known_root(ctx1000):
    p = parse_problem("vars: x\neq: x^2 - 1\nstart: 4\n", ctx1000)
    trace = solve(p, SolveConfig(order=2, precision=1000))
    with pytest.raises(ValueError, match="no known root"):
        estimate_order_known_root(trace)


def test_known_root_measures_against_the_nearest_root(ctx1000):
    p = parse_problem("vars: x\neq: x^2 - 1\nstart: -4\nroot: 1\nroot: -1\n", ctx1000)
    trace = solve(p, SolveConfig(order=2, precision=1000))
    assert abs(estimate_order_known_root(trace).summary - 2) < 0.1


EMPTY_WINDOW_50 = (
    r"precision 50 is too low to estimate orders: "
    r"the usable window \(1.00e50, 1.00e-2\) is empty"
)


def test_check_root_refuses_an_empty_window():
    p = parse_problem("vars: x\neq: x^2 - 1\nstart: 4\nroot: 1.5\n", Context(50))
    with pytest.raises(ValueError, match=EMPTY_WINDOW_50):
        check_root(p, p.known_roots[0])


def test_error_constant_refuses_an_empty_window():
    p = parse_problem("vars: x\neq: x^2 - 1\nstart: 4\nroot: 1.5\n", Context(50))
    trace = solve(p, SolveConfig(order=2, precision=50))
    with pytest.raises(ValueError, match=EMPTY_WINDOW_50):
        error_constant_check(trace, 2)


@pytest.mark.parametrize("estimate", [estimate_order_known_root, estimate_order_successive])
def test_estimators_refuse_an_empty_window(estimate):
    p = parse_problem("vars: x\neq: x^2 - 1\nstart: 4\nroot: 1\n", Context(80))
    trace = solve(p, SolveConfig(order=2, precision=80))
    with pytest.raises(ValueError, match=r"window \(1.00e20, 1.00e-2\) is empty"):
        estimate(trace)


def test_check_root_maps_too_deep_an_expression(ctx200):
    text = "vars: x\neq: " + " + ".join(["x"] * 1200) + " - 1200\nstart: 2\nroot: 1\n"
    p = parse_problem(text, ctx200)
    with pytest.raises(InvseriesError, match="an expression nests too deeply to evaluate"):
        check_root(p, p.known_roots[0])


def test_known_root_on_reference_traces(two_var, ctx1000):
    expected_windows = {2: (1.9, 2.1), 3: (2.9, 3.1)}
    for k, (lo, hi) in expected_windows.items():
        trace = solve(two_var, SolveConfig(order=k, precision=1000))
        est = estimate_order_known_root(trace)
        assert lo <= est.summary <= hi


def test_successive_on_synthetic_steps(scalar_problem, ctx1000):
    one = ctx1000.one
    xs = [MPVector([one])]
    total = ctx1000.zero
    for e in (1, 2, 4, 8):  # steps 1e-1, 1e-2, 1e-4, 1e-8
        total += ctx1000.pow10(-e)
        xs.append(MPVector([one + total]))
    est = estimate_order_successive(fake_trace(scalar_problem, xs))
    assert abs(est.summary - 2) < 1e-6


def test_successive_on_reference_traces(two_var):
    for k, (lo, hi) in {4: (3.8, 4.2), 5: (4.8, 5.2)}.items():
        trace = solve(two_var, SolveConfig(order=k, precision=1000))
        est = estimate_order_successive(trace)
        assert lo <= est.summary <= hi


def test_successive_insufficient_data(scalar_problem, ctx1000):
    one = ctx1000.one
    xs = [MPVector([one]), MPVector([one + ctx1000.pow10(-4)])]
    with pytest.raises(InsufficientDataError):
        estimate_order_successive(fake_trace(scalar_problem, xs))


def test_estimators_agree_on_corpus(two_var):
    for k in (2, 3, 4, 5):
        trace = solve(two_var, SolveConfig(order=k, precision=1000))
        a = estimate_order_known_root(trace)
        b = estimate_order_successive(trace)
        if len(a.window) >= 5 and len(b.window) >= 5:
            assert abs(a.summary - b.summary) < 0.15


def test_error_constant_newton(scalar_problem):
    trace = solve(scalar_problem, SolveConfig(order=2, precision=1000))
    measured, predicted = error_constant_check(trace, 2)
    assert predicted == 0.5
    assert abs(measured / predicted - 1) < 1e-3


def test_error_constant_third_order(scalar_problem):
    trace = solve(scalar_problem, SolveConfig(order=3, precision=1000))
    measured, predicted = error_constant_check(trace, 3)
    assert predicted == 0.5
    assert abs(measured / predicted - 1) < 1e-3


@pytest.mark.parametrize("k, expected", [(7, "2.0625"), (8, "3.3515625")])
def test_error_constant_at_the_top_orders(scalar_problem, k, expected):
    """|binom(1/2, k)·2^k|, the order-8 case included (MAX_ORDER is 8)."""
    trace = solve(scalar_problem, SolveConfig(order=k, precision=1000))
    measured, predicted = error_constant_check(trace, k)
    assert predicted == scalar_problem.context.mp.mpf(expected)
    assert abs(measured / predicted - 1) < 1e-3


def test_error_constant_affine(ctx1000):
    p = parse_problem("vars: x\neq: 2*x - 3\nstart: 4\nroot: 1.5\n", ctx1000)
    trace = solve(p, SolveConfig(order=2, precision=1000))
    measured, predicted = error_constant_check(trace, 2)
    assert measured == 0
    assert predicted == 0


def test_error_constant_rejects_an_inexact_root(ctx200):
    p = parse_problem("vars: x\neq: x^2 - 2\nstart: 1\nroot: 1.41421356\n", ctx200)
    trace = solve(p, SolveConfig(order=2, precision=200))
    with pytest.raises(ValueError, match="supplied root has residual 6.7121e-9"):
        error_constant_check(trace, 2)


def test_error_constant_needs_one_var(two_var):
    trace = solve(two_var, SolveConfig(order=2, precision=1000))
    with pytest.raises(ValueError):
        error_constant_check(trace, 2)


def test_error_constant_refuses_a_non_integer_order(scalar_problem):
    trace = solve(scalar_problem, SolveConfig(order=3, precision=1000))
    with pytest.raises(ValueError, match="order must be an int, got 3.5"):
        error_constant_check(trace, 3.5)


def test_markdown_table_writes_header_rule_and_rows():
    assert markdown_table(["a", "b"], [["1", "2"], ["3", "4"]]) == (
        "| a | b |\n|---|---|\n| 1 | 2 |\n| 3 | 4 |"
    )


def test_render_markdown_reference_prefix(two_var):
    trace = solve(two_var, SolveConfig(order=2, precision=1000))
    table = render_table(trace, 50, "markdown")
    lines = table.splitlines()
    assert lines[0] == "| iter | x1 | x2 | step_norm | residual_norm | error_vs_root |"
    row2 = lines[4]
    assert "| 2 | 1.29779411764705882352941176470588235294117" in row2


def test_render_single_row_trace(ctx1000):
    p = parse_problem("vars: x\neq: x^2\nstart: 0\n", ctx1000)
    trace = solve(p, SolveConfig(order=2, precision=1000))
    table = render_table(trace, 20, "markdown")
    lines = table.splitlines()
    assert len(lines) == 3  # header, rule, the start row
    assert lines[2].split("|")[3].strip() == "-"


def test_render_csv_round_trips(two_var):
    trace = solve(two_var, SolveConfig(order=3, precision=1000))
    text = render_table(trace, 30, "csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][:3] == ["iter", "x1", "x2"]
    assert len(rows) == len(trace.rows) + 1
    assert rows[1][3] == "-"


def test_render_json(two_var):
    trace = solve(two_var, SolveConfig(order=3, precision=1000))
    doc = json.loads(render_table(trace, 30, "json"))
    assert doc["status"] == "converged"
    assert doc["columns"][0] == "iter"
    assert doc["rows"][1]["x1"].startswith("1.685546875")


def test_render_deterministic(two_var):
    t1 = solve(two_var, SolveConfig(order=4, precision=1000))
    t2 = solve(two_var, SolveConfig(order=4, precision=1000))
    for fmt in ("markdown", "csv", "json"):
        assert render_table(t1, 50, fmt) == render_table(t2, 50, fmt)


def test_render_rejects_unknown_format(two_var):
    trace = solve(two_var, SolveConfig(order=2, precision=1000))
    with pytest.raises(ValueError):
        render_table(trace, 50, "html")
