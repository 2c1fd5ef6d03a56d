"""Tests of the benchmark's own code: python -m pytest perfbench -q"""

import random
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

import tracing
import workloads
from invseries import cli, corpus, expr, numerics, scheme, solver, taylor


# --- the synthetic generator --------------------------------------------------


def test_generator_is_deterministic_per_seed():
    assert workloads.synthetic_system(random.Random(7)) == workloads.synthetic_system(
        random.Random(7)
    )
    assert workloads.synthetic_system(random.Random(7)) != workloads.synthetic_system(
        random.Random(8)
    )
    a = workloads.Workload("wide-synthetic", 3, Path("unused"))
    b = workloads.Workload("wide-synthetic", 3, Path("unused"))
    assert a.texts == b.texts
    assert [j.label for j in a.setup()] == [j.label for j in b.setup()]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_residual_at_generated_root_is_exactly_zero(seed):
    text, root = workloads.synthetic_system(random.Random(seed))
    ctx = numerics.Context(workloads.WIDE_PRECISION)
    problem = expr.parse_problem(text, ctx)
    exact = numerics.MPVector(ctx.mp.mpf(r.numerator) / r.denominator for r in root)
    assert all(v == 0 for v in scheme.evaluate_system(problem, exact))
    assert [list(r) for r in problem.known_roots] == [list(exact)]
    assert numerics.norm_inf(problem.start.sub(exact)) <= 0.5


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_jacobian_is_diagonally_dominant_at_start(seed):
    text, _ = workloads.synthetic_system(random.Random(seed))
    ctx = numerics.Context(50)
    problem = expr.parse_problem(text, ctx)
    J = scheme.jacobian_series(problem, problem.start, 0).constant_matrix()
    for i in range(problem.nvars):
        off = sum(abs(J.at(i, j)) for j in range(problem.nvars) if j != i)
        assert abs(J.at(i, i)) > off


# --- span arithmetic ------------------------------------------------------------


def _tree():
    S = tracing.Span
    return [
        S("root", 0.0, 10.0, None, "job"),  # 0
        S("a", 1.0, 4.0, 0, "job"),  # 1
        S("c", 2.0, 3.0, 1, "job"),  # 2
        S("b", 5.0, 9.0, 0, "job"),  # 3
        S("d", 6.0, 8.0, 3, "job"),  # 4
        S("d", 7.0, 9.0, 3, "other"),  # 5: overlaps its sibling
        S("b", 7.5, 8.5, 5, "job"),  # 6: a "b" nested under a "b"
    ]


def test_self_times_on_hand_built_tree():
    assert tracing.self_times(_tree()) == [3.0, 2.0, 1.0, 1.0, 2.0, 1.0, 1.0]


def test_rollup_counts_nested_names_once():
    out = tracing.rollup(_tree())
    assert out["b"] == {"self_s": 2.0, "s": 4.0, "calls": 2}
    assert out["d"] == {"self_s": 3.0, "s": 4.0, "calls": 2}
    assert tracing.rollup(_tree(), job="other") == {"d": {"self_s": 1.0, "s": 2.0, "calls": 1}}


def test_pair_counts():
    ctx = numerics.Context(20)
    a = taylor.jet_var(ctx, 0, 1, 1, 2)  # 1 + x, zero x^2 coefficient
    assert tracing.pair_counts(a, a) == (6, 4)


def test_tracer_records_layers_and_restores_modules():
    ctx = numerics.Context(100)
    problem = corpus.builtin_problem("incas-2var", ctx)
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.job = "one"
        trace = solver.solve(problem, solver.SolveConfig(3, 100))
    assert solver.build_terms is scheme.build_terms
    assert scheme.jet_mul is taylor.jet_mul
    metrics = tracer.layer_metrics("one")
    assert metrics["solver.iterations"] == len(trace.rows) - 1
    assert metrics["numerics.lu_invert.calls"] == len(trace.rows) - 1
    assert metrics["taylor.jet_mul.calls"] > 0
    assert 0 < metrics["taylor.jet_mul.nonzero_frac"] <= 1
    rollup = tracing.rollup(tracer.spans)
    assert rollup["solver.solve"]["calls"] == 1
    assert rollup["scheme.build_terms"]["calls"] == len(trace.rows) - 1
    assert sum(v["self_s"] for v in rollup.values()) == pytest.approx(
        rollup["solver.solve"]["s"]
    )


# --- correctness checks -----------------------------------------------------------


def _solved(precision=200):
    ctx = numerics.Context(precision)
    problem = corpus.builtin_problem("incas-2var", ctx)
    trace = solver.solve(problem, solver.SolveConfig(3, precision))
    mp, roots = workloads.builtin_roots("incas-2var", precision)
    return problem, trace, mp, roots


def test_check_solve_accepts_the_solver_answer():
    problem, trace, mp, roots = _solved()
    outcome = workloads.check_solve(problem, trace, mp, roots, 200)
    assert outcome.ok and outcome.digits >= 150


def test_check_solve_rejects_a_perturbed_answer():
    problem, trace, mp, roots = _solved()
    last = trace.rows[-1]
    nudge = problem.context.pow10(-140)
    moved = numerics.MPVector([last.x[0] + nudge, last.x[1]])
    rows = trace.rows[:-1] + [replace(last, x=moved)]
    forged = solver.IterationTrace(problem, rows, trace.status)
    assert not workloads.check_solve(problem, forged, mp, roots, 200).ok


def test_check_solve_rejects_a_wrong_status():
    problem, trace, mp, roots = _solved()
    stalled = solver.IterationTrace(problem, trace.rows, solver.Status.MAX_ITERS)
    assert not workloads.check_solve(problem, stalled, mp, roots, 200).ok


def test_check_tables_rejects_an_altered_file(tmp_path):
    code = cli.main(["tables", "--out-dir", str(tmp_path)])
    assert workloads.check_tables(code, tmp_path, 1000).ok
    assert not workloads.check_tables(1, tmp_path, 1000).ok
    path = tmp_path / "table_order3.md"
    data = path.read_bytes()
    path.write_bytes(data.replace(b"|", b" |", 1))
    assert not workloads.check_tables(code, tmp_path, 1000).ok
    path.write_bytes(data)
    (tmp_path / "extra.md").write_text("x")
    assert not workloads.check_tables(code, tmp_path, 1000).ok


ORDER_CHECK_OUTPUT = """\
| order | known_root | successive | verdict |
|---|---|---|---|
| 2 | 2.014 | 2.000 | ok |
| 3 | 3.025 | 3.000 | ok |
| 4 | 4.049 | 3.999 | ok |
| 5 | 5.048 | 4.998 | ok |
"""


def test_check_order_check_rejects_bad_verdicts():
    orders = (2, 3, 4, 5)
    assert workloads.check_order_check(0, ORDER_CHECK_OUTPUT, orders).ok
    assert not workloads.check_order_check(2, ORDER_CHECK_OUTPUT, orders).ok
    failed = ORDER_CHECK_OUTPUT.replace("3.999 | ok", "3.999 | FAIL")
    assert not workloads.check_order_check(0, failed, orders).ok
    missing = ORDER_CHECK_OUTPUT.replace("| 5 | 5.048 | 4.998 | ok |\n", "")
    assert not workloads.check_order_check(0, missing, orders).ok
