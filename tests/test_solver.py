import csv
import io
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invseries import solver
from invseries.analysis import render_table
from invseries.corpus import builtin_problem
from invseries.expr import parse_problem
from invseries.errors import IterationError
from invseries.numerics import Context, MPVector, decimal_mpf, format_scalar, norm_inf
from invseries.scheme import evaluate_system
from invseries.solver import SolveConfig, Status, solve

from helpers import counter_stop, update


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(order=1)
    with pytest.raises(ValueError):
        SolveConfig(order=2, max_iters=0)
    for bad in ("-1", "0", "abc", "inf", "nan"):
        with pytest.raises(ValueError):
            SolveConfig(order=2, tol=bad)
    SolveConfig(order=2, tol="1e-900")  # below the smallest float, still positive


def test_text_tol_goes_through_the_decimal_parser():
    ctx = Context(60)
    for text in (".5e-3", "1e-450", "0.0" + "7" * 5000):
        config = SolveConfig(order=2, precision=60, tol=text)
        assert solver.resolve_tol(config, ctx)._mpf_ == decimal_mpf(text, ctx.mp.prec)
    for number in (0.1, 1, ctx.mp.mpf("0.1")):  # a number is refused, not converted
        with pytest.raises(ValueError, match="tol must be decimal text, got "):
            SolveConfig(order=2, precision=60, tol=number)
    for bad in (".0", "-.0", "1/2"):
        with pytest.raises(ValueError, match=f"finite positive number, got {bad}"):
            SolveConfig(order=2, tol=bad)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"order": 3.5}, "order must be an int, got 3.5"),
        ({"order": 3.0}, "order must be an int, got 3.0"),
        ({"order": 3, "max_iters": 2.5}, "max_iters must be an int >= 1, got 2.5"),
        ({"order": True}, "order must be an int, got True"),
        ({"order": 2, "max_iters": True}, "max_iters must be an int >= 1, got True"),
        ({"order": 2, "precision": 100.5}, "precision must be an int, got 100.5"),
        ({"order": 2, "precision": "300"}, "precision must be an int, got '300'"),
        ({"order": 2, "precision": 15}, "precision must be >= 16 decimal digits, got 15"),
    ],
    ids=[
        "order-3.5", "order-3.0", "max-iters-2.5", "order-True", "max-iters-True",
        "precision-100.5", "precision-text", "precision-15",
    ],
)
def test_config_refuses_a_non_integer_count(fields, message):
    with pytest.raises(ValueError, match=message):
        SolveConfig(**fields)


def test_f_evaluated_once_per_iterate(two_var, monkeypatch):
    calls = []

    def counting(problem, point):
        calls.append(tuple(point))
        return evaluate_system(problem, point)

    monkeypatch.setattr(solver, "evaluate_system", counting)
    trace = solve(two_var, SolveConfig(order=3, precision=1000))
    assert len(calls) == len(trace.rows)
    assert calls == [tuple(row.x) for row in trace.rows]


def test_precision_mismatch_rejected(two_var):
    with pytest.raises(ValueError):
        solve(two_var, SolveConfig(order=2, precision=300))


def test_newton_trace_matches_reference_rows(two_var, ctx1000):
    trace = solve(two_var, SolveConfig(order=2, precision=1000))
    assert trace.status is Status.CONVERGED
    mp = ctx1000.mp
    assert trace.rows[1].x[0] == mp.mpf("2.125")
    x2 = format_scalar(trace.rows[2].x[0], 50)
    assert x2.startswith("1.29779411764705882352941176470588235294117")
    steps = [format_scalar(s, 10) for s in trace.step_norms()]
    assert steps[0] == "1.875000000e0"
    assert steps[1] == "8.272058823e-1"
    assert steps[2] == "2.636279370e-1"


def test_third_order_second_iterate(two_var):
    trace = solve(two_var, SolveConfig(order=3, precision=1000))
    x2 = format_scalar(trace.rows[2].x[0], 50)
    assert x2.startswith("1.05093669710446668578038273953086034451734")


def test_three_var_converges_to_scaled_root(three_var, ctx1000):
    trace = solve(three_var, SolveConfig(order=3, precision=1000))
    assert trace.status is Status.CONVERGED
    x = trace.rows[-1].x
    mp = ctx1000.mp
    r = mp.sqrt(mp.mpf(3) / 35)
    # root has shape (r, -3r, 5r) up to a global sign
    assert abs(abs(x[0]) - r) < ctx1000.pow10(-900)
    assert abs(x[1] / x[0] + 3) < ctx1000.pow10(-900)
    assert abs(x[2] / x[0] - 5) < ctx1000.pow10(-900)
    # direct substitution: residual at the final iterate is tiny
    assert trace.rows[-1].residual_norm < ctx1000.pow10(-900)


def test_start_at_root_converges_immediately(ctx1000):
    text = "vars: x1 x2\neq: x1 - x2\neq: x1^2 + x2^2 - 2\nstart: 1 1\nroot: 1 1\n"
    p = parse_problem(text, ctx1000)
    trace = solve(p, SolveConfig(order=3, precision=1000))
    assert trace.status is Status.CONVERGED
    assert len(trace.rows) <= 2
    assert trace.rows[-1].step_norm == 0


def test_trace_consistency(two_var):
    trace = solve(two_var, SolveConfig(order=4, precision=1000))
    assert trace.rows[0].step_norm is None
    for prev, row in zip(trace.rows, trace.rows[1:]):
        assert row.step_norm == norm_inf(row.x.sub(prev.x))


def test_monotone_tail(two_var):
    for order in (2, 3, 5):
        trace = solve(two_var, SolveConfig(order=order, precision=1000))
        steps = trace.step_norms()
        tail = [s for s in steps if s < 1e-3]
        assert all(a > b for a, b in zip(tail, tail[1:]) if a > 0)


def test_singular_jacobian_at_start(ctx1000):
    p = parse_problem("vars: x\neq: x^2\nstart: 0\n", ctx1000)
    trace = solve(p, SolveConfig(order=2, precision=1000))
    assert trace.status is Status.SINGULAR_JACOBIAN
    assert len(trace.rows) == 1  # terminated before any update


def test_scaled_scalar_equation_is_not_singular(ctx1000):
    # the pivot 2e-600*x is tiny only in absolute terms
    p = parse_problem("vars: x\neq: 1e-600*x^2 - 1e-600\nstart: 4\n", ctx1000)
    trace = solve(p, SolveConfig(order=2, precision=1000))
    assert trace.status is Status.CONVERGED
    assert abs(trace.rows[-1].x[0] - 1) < ctx1000.pow10(-900)


def test_tiny_denominator_is_not_a_division_by_zero(ctx1000):
    # 1e-600 is far below 10^-(precision/2) but not zero
    p = parse_problem("vars: x\neq: x/1e-600 - 2e600\nstart: 1.5\n", ctx1000)
    trace = solve(p, SolveConfig(order=3, precision=1000))
    assert trace.status is Status.CONVERGED
    assert abs(trace.rows[-1].x[0] - 2) < ctx1000.pow10(-990)


def test_zero_denominator_at_the_start_is_an_iteration_error(ctx1000):
    p = parse_problem("vars: x\neq: 1/x - 2\nstart: 0\n", ctx1000)
    with pytest.raises(IterationError) as info:
        solve(p, SolveConfig(order=2, precision=1000))
    assert info.value.iteration == 0


@pytest.mark.parametrize("order", [3, 5])
def test_a_long_product_chain_still_solves(order):
    """A sweep reads the top of x·x·…·x through 899 lazy products, one
    Python frame each, as deep as the evaluator's own recursion."""
    ctx = Context(50)
    p = parse_problem("vars: x\neq: " + "*".join(["x"] * 900) + " - 2\nstart: 1.001\n", ctx)
    trace = solve(p, SolveConfig(order=order, precision=50))
    assert trace.status is Status.CONVERGED
    assert abs(trace.rows[-1].x[0] ** 900 - 2) < ctx.pow10(-40)


def test_too_deep_an_expression_is_an_iteration_error():
    ctx = Context(30)
    p = parse_problem("vars: x\neq: " + " + ".join(["x"] * 1200) + " - 1\nstart: 1\n", ctx)
    with pytest.raises(IterationError) as info:
        solve(p, SolveConfig(order=2, precision=30))
    assert info.value.iteration == 0
    assert str(info.value) == "iteration 0: an expression nests too deeply to evaluate"


@given(
    row=st.sampled_from([0, 1]),
    exponent=st.integers(-1200, 1200),
    order=st.integers(2, 3),
)
@example(row=0, exponent=-900, order=2)
@example(row=0, exponent=-1200, order=3)
@example(row=1, exponent=900, order=2)
@settings(max_examples=15)
def test_scaling_an_equation_keeps_the_status(ctx1000, row, exponent, order):
    eqs = ["x1 - x2", "x1^2 + x2^2 - 2"]
    config = SolveConfig(order=order, precision=1000)
    unscaled = solve(builtin_problem("incas-2var", ctx1000), config)
    eqs[row] = f"1e{exponent}*({eqs[row]})"
    text = "vars: x1 x2\n" + "".join(f"eq: {e}\n" for e in eqs) + "start: 4 4\n"
    trace = solve(parse_problem(text, ctx1000), config)
    assert trace.status is unscaled.status


@pytest.mark.parametrize("precision, exponent", [(100, 60), (1000, 510)])
def test_row_with_one_huge_entry_is_not_singular(precision, exponent):
    # J = [[2, 10^e], [1, 1]]: row 0's first entry is tiny for its row only
    ctx = Context(precision)
    text = f"vars: x1 x2\neq: 2*x1 + 1e{exponent}*x2 - 1\neq: x1 + x2\nstart: 0 0\n"
    trace = solve(parse_problem(text, ctx), SolveConfig(order=2, precision=precision))
    assert trace.status is Status.CONVERGED
    root = 1 / (2 - ctx.pow10(exponent))
    error = max(abs(trace.rows[-1].x[0] - root), abs(trace.rows[-1].x[1] + root))
    assert error <= abs(root) * ctx.pow10(-precision + 10)


def test_divergence_detected(ctx1000):
    # the basin of 1/x - 0.5 repels from the far side: steps grow without bound
    p = parse_problem("vars: x\neq: 1/x - 0.5\nstart: 5\n", ctx1000)
    trace = solve(p, SolveConfig(order=2, precision=1000))
    assert trace.status is Status.DIVERGED
    assert len(trace.rows) < 31


@pytest.mark.xfail(strict=True, reason="the divergence test reads step norms alone")
def test_overshoot_with_a_falling_residual_is_not_diverged():
    # the steps grow 3.7, 16.9, 624, 772 while the residual falls 1.7e7 ->
    # 2.4e6; with the divergence test off this run converges at iteration 30
    text = "vars: x y\neq: exp(x) - 2*y\neq: sin(y) + x^2 - 1\nstart: -1 4\n"
    p = parse_problem(text, Context(60))
    trace = solve(p, SolveConfig(order=2, precision=60))
    assert trace.status is not Status.DIVERGED


@pytest.mark.xfail(strict=True, reason="the stop rule compares the step with an absolute tol")
def test_converged_is_relative_to_a_tiny_root():
    # the first step, 1.3e-980, is below the default tol of 10^-950, so
    # the solve stops at 1.67e-980, 67% off the root
    ctx = Context(1000)
    text = "vars: x\neq: x^2 - 1e-980^2\nstart: 3e-980\nroot: 1e-980\n"
    p = parse_problem(text, ctx)
    trace = solve(p, SolveConfig(order=2, precision=1000))
    root = p.known_roots[0][0]
    assert not (
        trace.status is Status.CONVERGED
        and norm_inf(trace.rows[-1].x.sub(p.known_roots[0])) > ctx.pow10(-950) * root
    )


@pytest.mark.xfail(strict=True, reason="an absolute tol is below one ulp of a 1e99 coordinate")
def test_converged_is_relative_to_a_large_root():
    # incas-3var with its variables scaled by 10^100: from iteration 14 the
    # step norm stays at 1.04e-901, one ulp of a 10^99 coordinate, above
    # the absolute default tol of 10^-950, so every order hits the cap
    ctx = Context(1000)
    text = (
        "vars: x1 x2 x3\neq: x1 + 2*x2 + x3\neq: 2*x1 - x2 - x3\n"
        "eq: x1^2 + x2^2 + x3^2 - 3*1e100^2\nstart: 2.1e100 2.2e100 -1e100\n"
    )
    p = parse_problem(text, ctx)
    for order in (2, 3, 5):
        assert solve(p, SolveConfig(order=order, precision=1000)).status is Status.CONVERGED


@pytest.mark.xfail(strict=True, reason="the pivot floor is relative to rows, not columns")
def test_a_scaled_variable_is_not_singular():
    # in y' = 1e-600*y this is a well-conditioned linear system, but the
    # column-1 pivot after elimination, 2e-600, is below its row's floor
    # of 1e-500, so the solve stops at iteration 0
    ctx = Context(1000)
    text = (
        "vars: x y\neq: x + 1e-600*y - 1\neq: x - 1e-600*y\n"
        "start: 1 1e600\nroot: 0.5 5e599\n"
    )
    trace = solve(parse_problem(text, ctx), SolveConfig(order=2, precision=1000))
    assert trace.status is Status.CONVERGED


@pytest.mark.parametrize(
    "norms, expected",
    [
        ([5, 1, 2, 3, 4], False),  # rises for the window but ends below the first
        ([1, 2, 3, 4], True),
        ([1, 2, 2, 3, 4], False),  # a tie breaks the run
        ([1, 2, 3], False),
    ],
)
def test_diverged_reads_the_last_step_norms(norms, expected):
    assert solver.diverged(norms) is expected


# step norms as a walk from 3, so runs of rises, ties and tol hits are common
STEP_NORMS = st.lists(st.integers(-2, 2), min_size=1, max_size=12).map(
    lambda moves: list(accumulate(moves, lambda a, m: max(1, a + m), initial=3))[1:]
)


@given(norms=STEP_NORMS, tol=st.sampled_from(["0.5", "1", "2"]))
@example(norms=[1, 2, 3, 4, 5], tol="0.5")
@example(norms=[5, 1, 2, 3, 5], tol="0.5")  # the run ends level with the first step
@settings(max_examples=300)
def test_solve_stops_where_the_counters_stopped(ctx60, norms, tol):
    """Divergence decided from the rows matches the counters the loop once
    kept, ties and tol hits included."""
    problem = parse_problem("vars: x\neq: x\nstart: 0\n", ctx60)
    steps = iter(norms)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "build_terms", lambda *args: None)
        mp.setattr(solver, "apply_update", lambda _, x: MPVector([x[0] + next(steps)]))
        config = SolveConfig(order=2, precision=60, max_iters=len(norms), tol=tol)
        trace = solve(problem, config)
    assert (len(trace.rows) - 1, trace.status.value) == counter_stop(
        norms, ctx60.mp.mpf(tol)
    )


def test_error_vs_root_uses_nearest():
    # from 0.1 the run converges to -1, but the start is nearest +1: each
    # row's error_vs_root is its distance to its own nearest root
    ctx = Context(60)
    p = parse_problem("vars: x\neq: x^2 - 1\nstart: 0.1\nroot: 1\nroot: -1\n", ctx)
    trace = solve(p, SolveConfig(order=3, precision=60))
    assert trace.status is Status.CONVERGED and trace.rows[-1].x[0] == -1
    rows = list(csv.DictReader(io.StringIO(render_table(trace, format="csv"))))
    assert [row["iter"] for row in rows] == [str(n) for n in range(len(trace.rows))]
    assert rows[0]["error_vs_root"] == "8.999999999e-1"
    assert rows[1]["error_vs_root"] == "1.164624999e2"
    assert rows[-1]["error_vs_root"] == "0"


def test_solve_reads_no_known_root():
    # known roots are input to analysis alone; the loop records only what
    # it decides
    assert "known_roots" not in Path(solver.__file__).read_text()


def test_iterate_once_matches_first_row(two_var):
    first = update(two_var, two_var.start, 5)
    trace = solve(two_var, SolveConfig(order=5, precision=1000))
    assert first[0] == trace.rows[1].x[0]


def test_iterate_once_idempotent_at_root(ctx1000):
    text = "vars: x1 x2\neq: x1 - x2\neq: x1^2 + x2^2 - 2\nstart: 1 1\n"
    p = parse_problem(text, ctx1000)
    out = update(p, p.start, 4)
    assert out[0] == 1 and out[1] == 1


def test_precision_doubling_of_iterates():
    def run(precision):
        ctx = Context(precision)
        problem = builtin_problem("incas-2var", ctx)
        return solve(problem, SolveConfig(order=3, precision=precision))

    lo = run(300)
    hi = run(600)
    hi_ctx = hi.problem.context
    n = min(len(lo.rows), len(hi.rows)) - 1
    for i in range(n):
        a = hi_ctx.mp.mpf(format_scalar(lo.rows[i].x[0], 320))
        b = hi.rows[i].x[0]
        assert abs(a - b) < hi_ctx.pow10(-280)


def test_max_iters_status(two_var, ctx1000):
    # a cap below the iteration need reports max-iters and exits cleanly
    config = SolveConfig(order=2, precision=1000, max_iters=3)
    trace = solve(two_var, config)
    assert trace.status is Status.MAX_ITERS
    assert len(trace.rows) == 4


def test_tol_override(two_var):
    config = SolveConfig(order=2, precision=1000, tol="1e-20")
    trace = solve(two_var, config)
    assert trace.status is Status.CONVERGED
    assert trace.rows[-1].step_norm <= 1e-20
    assert len(trace.rows) < 12  # stops earlier than the default tolerance


def test_bad_tol_rejected(two_var):
    with pytest.raises(ValueError):
        solve(two_var, SolveConfig(order=2, precision=1000, tol="0"))


def test_transcendental_system_converges(ctx1000):
    # exercises exp/log jets through the whole pipeline, not just taylor ops
    text = "vars: x\neq: exp(x) - 2\nstart: 1\n"
    p = parse_problem(text, ctx1000)
    trace = solve(p, SolveConfig(order=4, precision=1000))
    assert trace.status is Status.CONVERGED
    assert abs(trace.rows[-1].x[0] - ctx1000.mp.log(2)) < ctx1000.pow10(-940)


def test_mixed_transcendental_two_var(ctx1000):
    text = (
        "vars: x y\n"
        "eq: exp(x) + y - 3\n"
        "eq: sin(x) - y + 1\n"
        "start: 0.5 1.5\n"
    )
    p = parse_problem(text, ctx1000)
    trace = solve(p, SolveConfig(order=3, precision=1000))
    assert trace.status is Status.CONVERGED
    assert trace.rows[-1].residual_norm < ctx1000.pow10(-940)


def test_domain_error_mid_iteration_carries_index(ctx1000):
    from invseries.errors import IterationError

    # Newton drives log(x) = 0 from 3 to a negative iterate, then fails
    p = parse_problem("vars: x\neq: log(x)\nstart: 3\n", ctx1000)
    with pytest.raises(IterationError) as exc:
        solve(p, SolveConfig(order=2, precision=1000))
    assert exc.value.iteration >= 1


def test_solve_is_bitwise_deterministic(two_var):
    a = solve(two_var, SolveConfig(order=3, precision=1000))
    b = solve(two_var, SolveConfig(order=3, precision=1000))
    assert a.status is b.status and len(a.rows) == len(b.rows)
    for ra, rb in zip(a.rows, b.rows):
        assert all(x == y for x, y in zip(ra.x, rb.x))
        assert ra.residual_norm == rb.residual_norm


def test_default_tol_at_30_digits_converges_for_real():
    ctx = Context(30)
    p = builtin_problem("incas-2var", ctx)
    trace = solve(p, SolveConfig(order=2, precision=30))
    assert trace.status is Status.CONVERGED
    assert trace.rows[-1].residual_norm <= ctx.pow10(-15)


@given(
    precision=st.integers(16, 120),
    name=st.sampled_from(["incas-2var", "scalar-square"]),
    order=st.integers(2, 5),
)
@settings(max_examples=40)
def test_default_tol_never_exceeds_the_answer(precision, name, order):
    ctx = Context(precision)
    p = builtin_problem(name, ctx)
    trace = solve(p, SolveConfig(order=order, precision=precision))
    if trace.status is Status.CONVERGED:
        assert trace.rows[-1].residual_norm <= ctx.pow10(-(precision // 2))
