"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` for one line per criterion;
each test also prints an explicit PASS line with its runtime.
"""

import random
import time

import pytest

from invseries.analysis import error_constant_check, estimate_order_known_root
from invseries.corpus import builtin_problem
from invseries.errors import SingularMatrixError
from invseries.expr import parse_problem
from invseries.numerics import Context, MPVector, format_scalar, norm_inf
from invseries.scheme import build_terms
from invseries.solver import SolveConfig, Status, solve
from invseries.taylor import jet_compose_univariate, jet_var

from helpers import neg_f, update
from test_scheme import newton_step_by_lu, random_poly_problem

PRECISION = 1000


@pytest.fixture(scope="module")
def ctx():
    return Context(PRECISION)


@pytest.fixture(scope="module")
def two_var_problem(ctx):
    return builtin_problem("incas-2var", ctx)


@pytest.fixture(scope="module")
def traces(two_var_problem):
    return {
        k: solve(two_var_problem, SolveConfig(order=k, precision=PRECISION))
        for k in (2, 3, 4, 5)
    }


def report(n, started, budget, message):
    elapsed = time.time() - started
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget"
    print(f"ACCEPTANCE criterion {n}: PASS ({elapsed:.2f}s) - {message}")


def test_criterion_01_first_iterates_digit_exact(ctx, two_var_problem):
    started = time.time()
    expected = {
        2: "2.125",
        3: "1.685546875",
        4: "1.47955322265625",
        5: "1.358853816986083984375",
    }
    for order, text in expected.items():
        new = update(two_var_problem, two_var_problem.start, order)
        pinned = ctx.mp.mpf(text)  # finite binary fraction, parses exactly
        assert new[0] == pinned and new[1] == pinned, f"order {order}"
    report(1, started, 10, "iteration-1 values for orders 2-5 are digit-exact")


def test_criterion_02_long_decimal_cells(traces):
    started = time.time()
    x22 = format_scalar(traces[2].rows[2].x[0], 50)
    assert x22.startswith("1.29779411764705882352941176470588235294117")
    x33 = format_scalar(traces[3].rows[3].x[0], 50)
    assert x33.startswith("1.00005910371154170756114074221442391204039")
    report(2, started, 30, "42-digit trace cells reproduced for orders 2 and 3")


REFERENCE_STEPS = {
    2: [
        "1.875e0", "8.272058823e-1", "2.636279370e-1", "3.360179943e-2",
        "5.642220263e-4", "1.591732221e-7", "1.266805733e-14", "8.023983829e-29",
        "3.219215824e-57", "5.181675262e-114", "1.342487926e-227",
        "9.011369159e-455", "4.060238706e-909",
    ],
    3: [
        "2.314453125e0", "6.346101778e-1", "5.087759339e-2", "5.910371143e-5",
        "1.032182555e-13", "5.498440738e-40", "8.311676855e-119", "2.871018262e-355",
    ],
    4: [
        "2.520446777e0", "4.712251724e-1", "8.328047301e-3", "2.918053615e-9",
        "4.531615792e-35", "2.635677954e-138", "3.016125394e-551",
    ],
    5: [
        "2.641146183e0", "3.576931213e-1", "1.160695685e-3", "1.832656852e-15",
        "1.808896959e-74", "1.694639002e-369",
    ],
}


def _split_sci(text):
    mantissa, exponent = text.split("e")
    return mantissa.replace(".", "").rstrip("0") or "0", int(exponent)


def test_criterion_03_difference_columns(traces):
    started = time.time()
    checked = 0
    for order, cells in REFERENCE_STEPS.items():
        steps = traces[order].step_norms()
        assert len(steps) >= len(cells)
        for i, cell in enumerate(cells):
            want_digits, want_exp = _split_sci(cell)
            got_digits, got_exp = _split_sci(format_scalar(steps[i], 10))
            got_digits = got_digits.ljust(10, "0")
            assert got_exp == want_exp, f"order {order} step {i + 1}"
            assert got_digits.startswith(want_digits), f"order {order} step {i + 1}"
            checked += 1
    report(3, started, 120, f"{checked} printed step magnitudes match to 10 digits")


def test_criterion_04_empirical_orders(two_var_problem, traces):
    started = time.time()
    root = two_var_problem.known_roots[0]
    for k in (2, 3, 4, 5):
        est = estimate_order_known_root(traces[k], root)
        assert abs(est.summary - k) <= 0.1, f"order {k}: {est.summary}"
    report(4, started, 120, "known-root order summaries within 0.1 of nominal")


def test_criterion_05_generic_high_orders(ctx):
    started = time.time()
    problem = builtin_problem("scalar-square", ctx)
    for k in (6, 7):
        trace = solve(problem, SolveConfig(order=k, precision=PRECISION))
        assert trace.status is Status.CONVERGED
        root = min(
            problem.known_roots, key=lambda r: norm_inf(trace.rows[-1].x.sub(r))
        )
        est = estimate_order_known_root(trace, root)
        assert abs(est.summary - k) <= 0.2, f"order {k}: {est.summary}"
    report(5, started, 120, "orders 6 and 7 measure within 0.2 of nominal")


def test_criterion_06_one_dimensional_oracle(ctx):
    started = time.time()
    problem = builtin_problem("scalar-square", ctx)
    point = MPVector([ctx.mp.mpf(4)])
    terms = build_terms(problem, point, MPVector([ctx.one]), 6)
    oracle = jet_compose_univariate("sqrt", jet_var(ctx, 0, ctx.mp.mpf(16), 1, 6))
    rel_tol = ctx.pow10(-(PRECISION - 20))
    for p in range(2, 7):
        a_p = terms[p - 1][0]
        expected = oracle.coeffs[(p,)]
        assert abs(a_p - expected) <= abs(expected) * rel_tol, f"a_{p}"
    assert terms[2][0] == ctx.mp.mpf("6.103515625e-5")
    report(6, started, 10, "a_2..a_6 match the closed-form inverse coefficients")


def test_criterion_07_error_constant_law(ctx):
    started = time.time()
    problem = builtin_problem("scalar-square", ctx)
    for k in (2, 3):
        trace = solve(problem, SolveConfig(order=k, precision=PRECISION))
        measured, predicted = error_constant_check(trace, k)
        assert predicted == 0.5  # closed form for this system at the root
        assert abs(measured / predicted - 1) < 1e-3, f"order {k}"
    report(7, started, 10, "measured error constants match prediction to 3 digits")


def test_criterion_08_affine_exactness(ctx):
    started = time.time()
    problem = builtin_problem("affine-3", ctx)
    bound = ctx.pow10(-950)
    units = [
        MPVector(ctx.one if i == j else ctx.zero for i in range(3)) for j in range(3)
    ]
    for k in range(2, 9):
        for direction in (neg_f(problem, problem.start), *units):
            terms = build_terms(problem, problem.start, direction, k - 1)
            for term in terms[1:]:
                assert all(v == 0 for v in term)
        trace = solve(problem, SolveConfig(order=k, precision=PRECISION))
        assert trace.status is Status.CONVERGED
        assert trace.rows[1].residual_norm < bound, f"order {k}"
        assert len(trace.rows) <= 3  # the landing step plus the stopping check
    report(8, started, 10, "affine system solved in one iteration at every order")


def test_criterion_09_newton_cross_check(ctx):
    started = time.time()
    rng = random.Random(20240611)
    tol_factor = ctx.pow10(-(PRECISION - 15))
    checked = 0
    while checked < 100:
        n = 2 if checked < 50 else 3
        problem, point = random_poly_problem(rng, n, ctx)
        try:
            mine = update(problem, point, 2)
        except SingularMatrixError:
            continue
        oracle = newton_step_by_lu(problem, point, ctx)
        scale = max(ctx.one, norm_inf(oracle))
        assert norm_inf(mine.sub(oracle)) < scale * tol_factor
        checked += 1
    report(9, started, 60, "100 random systems: order-2 update equals LU Newton")


def test_criterion_10_singular_jacobian(ctx):
    started = time.time()
    problem = parse_problem("vars: x\neq: x^2\nstart: 0\n", ctx)
    trace = solve(problem, SolveConfig(order=2, precision=PRECISION))
    assert trace.status is Status.SINGULAR_JACOBIAN
    assert len(trace.rows) == 1
    report(10, started, 10, "flat start reports singular-jacobian immediately")
