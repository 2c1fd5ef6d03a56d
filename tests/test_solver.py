import pytest

from invseries import solver
from invseries.corpus import builtin_problem
from invseries.expr import parse_problem
from invseries.numerics import Context, format_scalar, norm_inf
from invseries.scheme import SchemeSpec, evaluate_system
from invseries.solver import SolveConfig, Status, iterate_once, solve


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(order=1)
    with pytest.raises(ValueError):
        SolveConfig(order=2, max_iters=0)


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
    assert trace.final_residual < ctx1000.pow10(-900)


def test_start_at_root_converges_immediately(ctx1000):
    text = "vars: x1 x2\neq: x1 - x2\neq: x1^2 + x2^2 - 2\nstart: 1 1\nroot: 1 1\n"
    p = parse_problem(text, ctx1000)
    trace = solve(p, SolveConfig(order=3, precision=1000))
    assert trace.status is Status.CONVERGED
    assert len(trace.rows) <= 2
    assert trace.rows[-1].step_norm == 0


def test_trace_consistency(two_var):
    trace = solve(two_var, SolveConfig(order=4, precision=1000))
    for prev, row in zip(trace.rows, trace.rows[1:]):
        recomputed = row.x.sub(prev.x)
        assert all(a == b for a, b in zip(recomputed, row.step))
        assert norm_inf(row.step) == row.step_norm
    assert [row.index for row in trace.rows] == list(range(len(trace.rows)))


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


def test_divergence_detected(ctx1000):
    # the basin of 1/x - 0.5 repels from the far side: steps grow without bound
    p = parse_problem("vars: x\neq: 1/x - 0.5\nstart: 5\n", ctx1000)
    trace = solve(p, SolveConfig(order=2, precision=1000))
    assert trace.status is Status.DIVERGED
    assert len(trace.rows) < 31


def test_error_vs_root_uses_nearest(two_var):
    trace = solve(two_var, SolveConfig(order=2, precision=1000))
    row0 = trace.rows[0]
    # start (4,4): distance 3 to (1,1), 5 to (-1,-1)
    assert row0.error_vs_root == 3
    assert trace.rows[-1].error_vs_root < trace.problem.context.pow10(-900)


def test_iterate_once_matches_first_row(two_var):
    first = iterate_once(two_var, two_var.start, SchemeSpec(5))
    trace = solve(two_var, SolveConfig(order=5, precision=1000))
    assert first[0] == trace.rows[1].x[0]


def test_iterate_once_idempotent_at_root(ctx1000):
    text = "vars: x1 x2\neq: x1 - x2\neq: x1^2 + x2^2 - 2\nstart: 1 1\n"
    p = parse_problem(text, ctx1000)
    out = iterate_once(p, p.start, SchemeSpec(4))
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
    assert trace.final_residual < ctx1000.pow10(-940)


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
