import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invseries.errors import SchemeSizeError, SingularMatrixError
from invseries.expr import (
    BinOp,
    Const,
    Power,
    Problem,
    Var,
    eval_scalar,
    parse_expression,
    parse_problem,
)
from invseries.numerics import (
    Context,
    MPMatrix,
    MPVector,
    lu_invert,
    lu_solve,
    norm_inf,
)
from invseries.scheme import (
    SchemeSpec,
    SeriesMatrix,
    apply_update,
    build_terms,
    evaluate_system,
    jacobian_series,
    series_matrix_inverse,
)
from invseries.taylor import (
    TaylorPoly,
    jet_add,
    jet_compose_univariate,
    jet_constant,
    jet_mul,
    jet_var,
)

CTX = Context(200)
TOL = CTX.pow10(-CTX.precision + 15)


def pt(ctx, *vals):
    return MPVector([ctx.mp.mpf(v) for v in vals])


def problem_from(text, ctx):
    return parse_problem(text, ctx)


TWO_VAR = "vars: x1 x2\neq: x1 - x2\neq: x1^2 + x2^2 - 2\nstart: 4 4\n"
SCALAR_SQUARE = "vars: x\neq: x^2 - 1\nstart: 4\n"
AFFINE_3 = (
    "vars: x1 x2 x3\n"
    "eq: x1 + 2*x2 + x3\n"
    "eq: 2*x1 - x2 - x3\n"
    "eq: 5*x1 + x3 - 6\n"
    "start: 2.1 2.2 -1\n"
)


def test_scheme_spec_invariants():
    assert SchemeSpec(2).terms == 1
    assert SchemeSpec(5).terms == 4
    with pytest.raises(ValueError):
        SchemeSpec(1)
    with pytest.raises(SchemeSizeError):
        SchemeSpec(9)


def test_jacobian_series_two_var():
    p = problem_from(TWO_VAR, CTX)
    J = jacobian_series(p, pt(CTX, 4, 4), 1)
    J0 = J.constant_matrix()
    assert J0.at(0, 0) == 1 and J0.at(0, 1) == -1
    assert J0.at(1, 0) == 8 and J0.at(1, 1) == 8


def test_jacobian_series_affine_rows():
    p = problem_from(AFFINE_3, CTX)
    J = jacobian_series(p, pt(CTX, "2.1", "2.2", -1), 2)
    J0 = J.constant_matrix()
    assert [J0.at(0, j) for j in range(3)] == [1, 2, 1]
    assert [J0.at(1, j) for j in range(3)] == [2, -1, -1]
    # higher coefficients all vanish for affine rows
    for j in range(3):
        for poly in (J.at(0, j), J.at(1, j)):
            assert all(c == 0 for a, c in poly.coeffs.items() if sum(a) >= 1)


def test_jacobian_series_degree_zero():
    p = problem_from(TWO_VAR, CTX)
    J = jacobian_series(p, pt(CTX, 4, 4), 0)
    assert J.degree == 0


def test_series_inverse_of_constant_identity():
    ident = [
        [jet_constant(CTX, 1 if i == j else 0, 2, 2) for j in range(2)]
        for i in range(2)
    ]
    X = series_matrix_inverse(SeriesMatrix(ident))
    for i in range(2):
        for j in range(2):
            expected = 1 if i == j else 0
            assert X.at(i, j).value() == expected
            assert all(c == 0 for a, c in X.at(i, j).coeffs.items() if sum(a) >= 1)


def test_series_inverse_constant_part_two_var():
    p = problem_from(TWO_VAR, CTX)
    X = series_matrix_inverse(jacobian_series(p, pt(CTX, 4, 4), 1))
    X0 = X.constant_matrix()
    mp = CTX.mp
    expected = [[mp.mpf(8) / 16, mp.mpf(1) / 16], [mp.mpf(-8) / 16, mp.mpf(1) / 16]]
    for i in range(2):
        for j in range(2):
            assert abs(X0.at(i, j) - expected[i][j]) < TOL


def test_series_inverse_singular_constant_term():
    rows = [
        [jet_constant(CTX, 1, 2, 1), jet_constant(CTX, -1, 2, 1)],
        [jet_constant(CTX, 0, 2, 1), jet_constant(CTX, 0, 2, 1)],
    ]
    with pytest.raises(SingularMatrixError):
        series_matrix_inverse(SeriesMatrix(rows))


@given(data=st.data())
@settings(max_examples=25)
def test_series_inverse_defining_property(data):
    n, d = 2, 2
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            coeffs = {}
            for alpha in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
                v = data.draw(st.integers(-3, 3))
                coeffs[alpha] = CTX.mp.mpf(v)
            if i == j:
                coeffs[(0, 0)] += 8  # keep the constant term dominant
            row.append(TaylorPoly(CTX, n, d, coeffs))
        entries.append(row)
    J = SeriesMatrix(entries)
    X = series_matrix_inverse(J)
    for i in range(n):
        for j in range(n):
            acc = jet_constant(CTX, 0, n, d)
            for k in range(n):
                acc = jet_add(acc, jet_mul(J.at(i, k), X.at(k, j)))
            target = 1 if i == j else 0
            assert abs(acc.value() - target) < TOL
            assert all(abs(c) < TOL for a, c in acc.coeffs.items() if sum(a) >= 1)


def test_one_var_terms_match_inverse_series_coefficients():
    """values/p! must equal the Taylor coefficients of the true inverse.

    For x^2 - 1 around 4 the inverse is known in closed form, so the jet of
    sqrt(16 + u) provides an independent oracle for every coefficient.
    """
    p = problem_from(SCALAR_SQUARE, CTX)
    k = 7
    terms = build_terms(p, pt(CTX, 4), SchemeSpec(k))
    u = jet_var(CTX, 0, CTX.mp.mpf(16), 1, k - 1)
    oracle = jet_compose_univariate("sqrt", u)
    mp = CTX.mp
    assert terms[0].value[(0, 0)] == mp.mpf("0.125")
    for term in terms:
        a_p = term.value[(0,) * (term.p + 1)] / math.factorial(term.p)
        expected = oracle.coeffs[(term.p,)]
        assert abs(a_p - expected) < abs(expected) * CTX.pow10(-CTX.precision + 20)
    # frozen exact binary values
    a2 = terms[1].value[(0, 0, 0)] / 2
    a3 = terms[2].value[(0, 0, 0, 0)] / 6
    assert a2 == mp.mpf("-1.953125e-3")
    assert a3 == mp.mpf("6.103515625e-5")


def test_affine_terms_vanish_beyond_first():
    p = problem_from(AFFINE_3, CTX)
    for k in (2, 4, 6):
        terms = build_terms(p, p.start, SchemeSpec(k))
        for term in terms[1:]:
            assert all(v == 0 for v in term.value.values())


def test_first_term_matches_lu_inverse():
    p = problem_from(TWO_VAR, CTX)
    point = pt(CTX, 4, 4)
    terms = build_terms(p, point, SchemeSpec(2))
    J0 = jacobian_series(p, point, 0).constant_matrix()
    inv = lu_invert(J0, CTX)
    for i in range(2):
        for j in range(2):
            assert abs(terms[0].value[(i, j)] - inv.at(i, j)) < TOL


def test_update_examples_first_iteration(ctx1000, two_var):
    mp = ctx1000.mp
    expected = {
        2: "2.125",
        3: "1.685546875",
        4: "1.47955322265625",
        5: "1.358853816986083984375",
    }
    start = two_var.start
    f_start = evaluate_system(two_var, start)
    for k, text in expected.items():
        terms = build_terms(two_var, start, SchemeSpec(k))
        new = apply_update(terms, f_start, start)
        assert new[0] == mp.mpf(text)  # exact binary fraction
        assert new[1] == mp.mpf(text)


def test_update_fixed_point():
    p = problem_from(TWO_VAR, CTX)
    point = pt(CTX, 3, 2)
    terms = build_terms(p, point, SchemeSpec(3))
    zero_f = MPVector([CTX.zero, CTX.zero])
    unchanged = apply_update(terms, zero_f, point)
    assert unchanged[0] == point[0] and unchanged[1] == point[1]


# --- independent Newton oracle ------------------------------------------------


def diff_expr(e, i):
    """Symbolic derivative for polynomial ASTs; the oracle path avoids jets."""
    if isinstance(e, Const):
        return Const("0")
    if isinstance(e, Var):
        return Const("1" if e.index == i else "0")
    if isinstance(e, BinOp):
        if e.op in "+-":
            return BinOp(e.op, diff_expr(e.left, i), diff_expr(e.right, i))
        if e.op == "*":
            return BinOp(
                "+",
                BinOp("*", diff_expr(e.left, i), e.right),
                BinOp("*", e.left, diff_expr(e.right, i)),
            )
        raise NotImplementedError("oracle only differentiates polynomials")
    if isinstance(e, Power):
        if e.exponent == 0:
            return Const("0")
        return BinOp(
            "*",
            BinOp("*", Const(str(e.exponent)), Power(e.base, e.exponent - 1)),
            diff_expr(e.base, i),
        )
    if hasattr(e, "arg"):  # Neg
        return type(e)(diff_expr(e.arg, i))
    raise NotImplementedError(type(e))


def newton_step_by_lu(problem, point, ctx):
    n = problem.nvars
    J = MPMatrix(
        [
            [eval_scalar(diff_expr(eq, i), point, ctx) for i in range(n)]
            for eq in problem.equations
        ]
    )
    F = evaluate_system(problem, point)
    delta = lu_solve(J, MPVector([-f for f in F]), ctx)
    return MPVector([x + d for x, d in zip(point, delta)])


def random_poly_problem(rng, n, ctx):
    names = [f"x{i+1}" for i in range(n)]
    var_map = {name: i for i, name in enumerate(names)}
    eqs = []
    for _ in range(n):
        monomials = []
        for _t in range(rng.randint(2, 4)):
            coeff = rng.choice([c for c in range(-5, 6) if c])
            factors = [str(coeff)]
            for i in range(n):
                e = rng.randint(0, 2)
                if e == 1:
                    factors.append(names[i])
                elif e == 2:
                    factors.append(f"{names[i]}^2")
            monomials.append("*".join(factors))
        eqs.append(parse_expression(" + ".join(monomials), var_map))
    point = MPVector(
        [ctx.mp.mpf(rng.choice([-3, -2, -1, 1, 2, 3])) / 2 for _ in range(n)]
    )
    problem = Problem(tuple(names), tuple(eqs), point, (), ctx)
    return problem, point


def test_newton_equivalence_random_systems():
    rng = random.Random(987654)
    checked = 0
    while checked < 60:
        n = 2 if checked % 2 == 0 else 3
        problem, point = random_poly_problem(rng, n, CTX)
        try:
            terms = build_terms(problem, point, SchemeSpec(2))
        except SingularMatrixError:
            continue
        mine = apply_update(terms, evaluate_system(problem, point), point)
        oracle = newton_step_by_lu(problem, point, CTX)
        scale = max(CTX.one, norm_inf(oracle))
        assert norm_inf(mine.sub(oracle)) < scale * CTX.pow10(-CTX.precision + 15)
        checked += 1


def test_permutation_consistency():
    ctx = CTX
    text_a = "vars: x1 x2\neq: x1 - x2\neq: x1^2 + x2^2 - 2\nstart: 4 3\n"
    text_b = "vars: x2 x1\neq: x1 - x2\neq: x1^2 + x2^2 - 2\nstart: 3 4\n"
    pa = problem_from(text_a, ctx)
    pb = problem_from(text_b, ctx)
    for k in (2, 3, 4):
        ua = apply_update(
            build_terms(pa, pa.start, SchemeSpec(k)),
            evaluate_system(pa, pa.start),
            pa.start,
        )
        ub = apply_update(
            build_terms(pb, pb.start, SchemeSpec(k)),
            evaluate_system(pb, pb.start),
            pb.start,
        )
        assert abs(ua[0] - ub[1]) < TOL and abs(ua[1] - ub[0]) < TOL


@given(c=st.integers(2, 40), k=st.integers(2, 6))
@settings(max_examples=30)
def test_symmetric_start_gives_symmetric_update(c, k):
    p = problem_from(TWO_VAR, CTX)
    point = pt(CTX, c, c)
    new = apply_update(
        build_terms(p, point, SchemeSpec(k)), evaluate_system(p, point), point
    )
    assert new[0] == new[1]


def test_variable_count_guardrail():
    n = 9
    names = " ".join(f"x{i}" for i in range(n))
    eqs = "\n".join(f"eq: x{i}^2 - 1" for i in range(n))
    text = f"vars: {names}\n{eqs}\nstart: {' '.join(['4'] * n)}\n"
    p = problem_from(text, CTX)
    with pytest.raises(SchemeSizeError):
        build_terms(p, p.start, SchemeSpec(2))


def test_one_var_terms_match_log_inverse_coefficients():
    """Second closed-form oracle: exp(x) - 1 has inverse log(1 + f)."""
    ctx = CTX
    p = problem_from("vars: x\neq: exp(x) - 1\nstart: 0.5\n", ctx)
    k = 7
    point = pt(ctx, "0.5")
    terms = build_terms(p, point, SchemeSpec(k))
    mp = ctx.mp
    f0 = mp.exp(mp.mpf("0.5")) - 1
    rel_tol = ctx.pow10(-ctx.precision + 20)
    for term in terms:
        a_p = term.value[(0,) * (term.p + 1)] / math.factorial(term.p)
        expected = (-1) ** (term.p - 1) / (term.p * (1 + f0) ** term.p)
        assert abs(a_p - expected) < abs(expected) * rel_tol, f"p={term.p}"


@given(data=st.data())
@settings(max_examples=30)
def test_jet_gradient_matches_symbolic_diff(data):
    """First derivatives from jets agree with the symbolic-diff oracle."""
    from invseries.expr import eval_jet
    from invseries.taylor import derivative_tensor

    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.sampled_from([2, 3]))
    problem, point = random_poly_problem(rng, n, CTX)
    for eq in problem.equations:
        jet = eval_jet(eq, point, 1, CTX)
        grad = derivative_tensor(jet, 1)
        for i in range(n):
            expected = eval_scalar(diff_expr(eq, i), point, CTX)
            assert abs(grad[i] - expected) < max(
                CTX.one, abs(expected)
            ) * CTX.pow10(-CTX.precision + 15)
