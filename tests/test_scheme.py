import gc
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invseries import scheme
from invseries.corpus import BUILTIN_NAMES, builtin_problem
from invseries.errors import (
    NESTS_TOO_DEEPLY,
    DivisionByZeroJetError,
    DomainError,
    InvseriesError,
    SchemeSizeError,
    ShapeMismatchError,
    SingularMatrixError,
)
from invseries.expr import (
    BinOp,
    Const,
    Power,
    Problem,
    Var,
    eval_jet,
    eval_jet_at,
    eval_partials,
    eval_scalar,
    eval_top,
    parse_expression,
    parse_problem,
)
from invseries.numerics import (
    Context,
    MPMatrix,
    MPVector,
    lu_invert,
    norm_inf,
)
from invseries.scheme import (
    SeriesMatrix,
    apply_update,
    build_terms,
    evaluate_system,
    jacobian_series,
    series_matrix_inverse,
)
from invseries.solver import SolveConfig, Status, solve
from invseries.taylor import (
    TaylorPoly,
    jet_add,
    jet_compose_univariate,
    jet_constant,
    jet_mul,
    jet_var,
    multi_indices,
)

from helpers import derivative_tensor, format_expr, mat_vec, neg_f, tensor_update, update

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


def test_order_check_accepts_two_to_max_order():
    for k in range(2, scheme.MAX_ORDER + 1):
        scheme.check_order(k)
    with pytest.raises(ValueError, match="order must be at least 2, got 1"):
        scheme.check_order(1)
    with pytest.raises(SchemeSizeError, match="exceeds the supported maximum 8"):
        scheme.check_order(9)


@pytest.mark.parametrize("order", [3.0, 3.5, "3"])
def test_check_order_refuses_a_non_integer(order):
    with pytest.raises(ValueError, match="order must be an int"):
        scheme.check_order(order)


@pytest.mark.parametrize("terms", [0, -3])
def test_build_terms_refuses_fewer_than_one_term(terms):
    p = builtin_problem("incas-2var", CTX)
    with pytest.raises(ValueError, match=f"terms must be at least 1, got {terms}"):
        build_terms(p, p.start, neg_f(p, p.start), terms)


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


def test_series_inverse_refuses_a_non_square_matrix():
    rows = [[jet_constant(CTX, 1, 2, 1), jet_constant(CTX, 2, 2, 1)]]
    with pytest.raises(ShapeMismatchError, match="lu_invert needs a square matrix"):
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
            for alpha in multi_indices(n, d):
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
    """The terms must equal the Taylor coefficients of the true inverse.

    For x^2 - 1 around 4 the inverse is known in closed form, so the jet of
    sqrt(16 + u) provides an independent oracle for every coefficient.
    """
    p = problem_from(SCALAR_SQUARE, CTX)
    k = 7
    terms = build_terms(p, pt(CTX, 4), pt(CTX, 1), k - 1)
    u = jet_var(CTX, 0, CTX.mp.mpf(16), 1, k - 1)
    oracle = jet_compose_univariate("sqrt", u)
    mp = CTX.mp
    assert terms[0][0] == mp.mpf("0.125")
    for q, term in enumerate(terms, start=1):
        expected = oracle.coeffs[(q,)]
        assert abs(term[0] - expected) < abs(expected) * CTX.pow10(-CTX.precision + 20)
    # frozen exact binary values
    assert terms[1][0] == mp.mpf("-1.953125e-3")
    assert terms[2][0] == mp.mpf("6.103515625e-5")


def test_affine_terms_vanish_beyond_first():
    p = problem_from(AFFINE_3, CTX)
    units = [
        MPVector(CTX.one if i == j else CTX.zero for i in range(3)) for j in range(3)
    ]
    for k in (2, 4, 6):
        for direction in (neg_f(p, p.start), *units):
            terms = build_terms(p, p.start, direction, k - 1)
            for term in terms[1:]:
                assert all(v == 0 for v in term)


def test_first_term_matches_lu_inverse():
    p = problem_from(TWO_VAR, CTX)
    point = pt(CTX, 4, 4)
    J0 = jacobian_series(p, point, 0).constant_matrix()
    inv = lu_invert(J0, CTX)
    for j, unit in enumerate((pt(CTX, 1, 0), pt(CTX, 0, 1))):
        column = build_terms(p, point, unit, 1)[0]
        for i in range(2):
            assert abs(column[i] - inv.at(i, j)) < TOL


def test_update_examples_first_iteration(ctx1000, two_var):
    mp = ctx1000.mp
    expected = {
        2: "2.125",
        3: "1.685546875",
        4: "1.47955322265625",
        5: "1.358853816986083984375",
    }
    for k, text in expected.items():
        new = update(two_var, two_var.start, k)
        assert new[0] == mp.mpf(text)  # exact binary fraction
        assert new[1] == mp.mpf(text)


@pytest.mark.parametrize("digits", [50, 1000])
def test_order_three_is_chebyshevs_method(digits):
    """One order-3 step is Chebyshev's x - f/f' - f''f^2/(2f'^3).

    Halley's x - 2ff'/(2f'^2 - ff'') would give 1.5510... on x^2 - 1 from 4
    and 2/3 on exp(x) - 2 from 0.
    """
    ctx = Context(digits)
    for eq, start, expected in (("x^2 - 1", 4, "1.685546875"), ("exp(x) - 2", 0, "0.5")):
        p = problem_from(f"vars: x\neq: {eq}\nstart: {start}\n", ctx)
        assert update(p, p.start, 3)[0] == ctx.mp.mpf(expected)  # exact binary fraction


def test_update_fixed_point():
    p = problem_from(TWO_VAR, CTX)
    point = pt(CTX, 3, 2)
    zero_f = MPVector([CTX.zero, CTX.zero])
    unchanged = apply_update(build_terms(p, point, zero_f, 2), point)
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
    delta = mat_vec(lu_invert(J, ctx), MPVector([-f for f in F]))
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
            mine = update(problem, point, 2)
        except SingularMatrixError:
            continue
        oracle = newton_step_by_lu(problem, point, CTX)
        scale = max(CTX.one, norm_inf(oracle))
        assert norm_inf(mine.sub(oracle)) < scale * CTX.pow10(-CTX.precision + 15)
        checked += 1


@given(seed=st.integers(0, 10**6), n=st.sampled_from([2, 3]), k=st.integers(3, 6))
@settings(max_examples=15)
def test_contracted_update_matches_tensor_reference(seed, n, k):
    """The solver's update equals the paper-form tensor update."""
    problem, point = random_poly_problem(random.Random(seed), n, CTX)
    try:
        ref = tensor_update(problem, point, k)
    except SingularMatrixError:
        return
    mine = update(problem, point, k)
    scale = max(CTX.one, norm_inf(ref))
    assert norm_inf(mine.sub(ref)) <= scale * CTX.pow10(-CTX.precision + 20)


# one template per node kind; every argument of log and sqrt, and every
# denominator, stays at least 1 for start values in [1/2, 3/2]
NODE_KIND_TERMS = {
    "/": "{c}/(x{a} + x{b} + 2)",
    "^": "{c}*(x{a} - x{b} + 0.5)^3",
    "exp": "{c}*exp(x{a} - 1)",
    "log": "{c}*log(x{a} + x{b})",
    "sqrt": "{c}*sqrt(x{a}*x{b} + 1)",
    "sin": "{c}*sin(x{a})*x{b}",
    "cos": "{c}*cos(x{a} - x{b})",
}


@st.composite
def node_kind_problems(draw):
    """A system whose equation j is 70·x_j plus terms of the drawn kinds.

    At the start the partials of one term sum to at most 21 in magnitude,
    so with at most three terms per equation the Jacobian is strictly
    diagonally dominant, hence nonsingular.
    """
    n = draw(st.sampled_from([1, 2, 3]))
    index = st.integers(1, n)
    coeff = st.sampled_from(["0.5", "1", "1.5", "(-0.5)", "(-1)", "(-1.5)"])
    kind = st.sampled_from(sorted(NODE_KIND_TERMS))
    eqs = []
    for j in range(1, n + 1):
        kinds = draw(st.lists(kind, min_size=1, max_size=3))
        terms = [
            NODE_KIND_TERMS[kind].format(c=draw(coeff), a=draw(index), b=draw(index))
            for kind in kinds
        ]
        eqs.append(f"70*x{j} + " + " + ".join(terms) + f" - {draw(st.integers(1, 60))}")
    value = st.sampled_from(["0.5", "0.75", "1", "1.25", "1.5"])
    start = [draw(value) for _ in range(n)]
    names = " ".join(f"x{i}" for i in range(1, n + 1))
    text = f"vars: {names}\n" + "".join(f"eq: {e}\n" for e in eqs)
    return problem_from(text + f"start: {' '.join(start)}\n", CTX)


EVERY_NODE_KIND = (
    "vars: x1 x2 x3\n"
    "eq: 70*x1 + 1/(x2 + x3 + 2) + 0.5*(x1 - x2 + 0.5)^3 + exp(x3 - 1) - 3\n"
    "eq: 70*x2 + log(x1 + x3) + sqrt(x2*x3 + 1) - 1.5\n"
    "eq: 70*x3 + sin(x1)*x2 + (-1)*cos(x3 - x1) - 2\n"
    "start: 0.5 1 1.5\n"
)


@given(problem=node_kind_problems(), k=st.integers(2, 6))
@example(problem=problem_from(EVERY_NODE_KIND, CTX), k=6)
@settings(max_examples=40)
def test_path_update_matches_tensor_reference_through_every_node_kind(problem, k):
    ref = tensor_update(problem, problem.start, k)
    mine = update(problem, problem.start, k)
    scale = max(CTX.one, norm_inf(ref))
    assert norm_inf(mine.sub(ref)) <= scale * CTX.pow10(-CTX.precision + 20)


# affine summands in every position eval_top prunes (A - N, N - A,
# a constant factor on either side, a constant divisor), ^0 and ^1, which
# it sweeps, and one affine equation
AFFINE_SUMMANDS = (
    "vars: x1 x2 x3\n"
    "eq: 70*x1 + 3 - x1*x2 + (x1 + 2)^1 - sin(x2)^0 + 2*(x1 - x3^2)\n"
    "eq: 70*x2 + (x1^2 - x3)/4 - (5 - exp(x2))*3 - x1/2 + (x1*x2)^1\n"
    "eq: x1 - x2/2 + 70*x3\n"
    "start: 0.7 1.3 0.5\n"
)


def path_seeds(problem, p):
    """The degree-p path sweep's univariate seeds at the start, 0 at the top."""
    point = problem.start
    path = [point, *build_terms(problem, point, neg_f(problem, point), p - 1)]
    keys = multi_indices(1, p)
    return [TaylorPoly(CTX, 1, p, dict(zip(keys, (*xs, CTX.zero)))) for xs in zip(*path)]


@given(problem=node_kind_problems(), p=st.integers(2, 5))
@example(problem=problem_from(AFFINE_SUMMANDS, CTX), p=5)
@settings(max_examples=40)
def test_eval_top_is_bitwise_the_full_sweep(problem, p):
    seeds = path_seeds(problem, p)
    for eq in problem.equations:
        full = eval_jet_at(eq, seeds, CTX).coeffs[(p,)]
        mine = eval_top(eq, seeds, CTX)
        assert mine._mpf_ == full._mpf_


@given(problem=node_kind_problems(), p=st.integers(2, 4))
@settings(max_examples=30)
def test_a_unary_minus_is_bitwise_the_negation_in_every_evaluator(problem, p):
    """-(e) parses as the product with -1, which negates e's bits exactly."""
    names = {name: i for i, name in enumerate(problem.var_names)}
    point = problem.start
    xs = list(point)
    seeds = path_seeds(problem, p)
    for eq in problem.equations:
        neg = parse_expression(f"-({format_expr(eq)})", names)
        assert neg == BinOp("*", Const("-1"), eq)
        assert eval_scalar(neg, point, CTX)._mpf_ == (-eval_scalar(eq, point, CTX))._mpf_
        grad, neg_grad = eval_partials(eq, xs, CTX), eval_partials(neg, xs, CTX)
        assert neg_grad.keys() == grad.keys()
        assert _bits(neg_grad.values()) == _bits(-g for g in grad.values())
        jet, neg_jet = eval_jet_at(eq, seeds, CTX), eval_jet_at(neg, seeds, CTX)
        assert _bits(neg_jet.coeffs.values()) == _bits(-c for c in jet.coeffs.values())
        assert eval_top(neg, seeds, CTX)._mpf_ == (-eval_top(eq, seeds, CTX))._mpf_


@pytest.mark.parametrize(
    "text, error",
    [
        ("vars: x\neq: x^2 + x/0\nstart: 2\n", DivisionByZeroJetError),
        ("vars: x\neq: x^2 + log(x - 3)^0\nstart: 2\n", DomainError),
        ("vars: x y\neq: x^2 + y\neq: x - y/0\nstart: 2 1\n", DivisionByZeroJetError),
    ],
)
def test_pruned_subtrees_still_raise_their_errors(text, error):
    """These subtrees add nothing to a sweep; the Jacobian raises their errors first."""
    p = problem_from(text, CTX)
    with pytest.raises(error):
        build_terms(p, p.start, MPVector([CTX.one] * p.nvars), 3)


# quotients whose values feed products: the gradient must carry a·(1/b)
QUOTIENT_FACTORS = (
    "vars: x1 x2\n"
    "eq: 70*x1 + x2/(x1 + 3) * x2 - 1\n"
    "eq: 70*x2 + exp(x1/3) * x1 - (1.5/x2)^2\n"
    "start: 0.7 1.3\n"
)


@st.composite
def jacobian_cases(draw):
    """A builtin, node-kind or quotient system at a point with full mantissas."""
    source = draw(st.sampled_from(["builtin", "node kinds", "quotient factors"]))
    # node-kind and quotient terms stay in their domains on [1/2, 3/2]
    low, width = CTX.mp.mpf("0.5"), 1
    if source == "builtin":
        problem = builtin_problem(draw(st.sampled_from(BUILTIN_NAMES)), CTX)
        low, width = -5, 10
    elif source == "node kinds":
        problem = draw(node_kind_problems())
    else:
        problem = problem_from(QUOTIENT_FACTORS, CTX)
    fractions = st.integers(0, 999_999)
    point = MPVector(
        low + width * (CTX.mp.mpf(draw(fractions)) / 999_999) for _ in range(problem.nvars)
    )
    return problem, point


def _bits(values):
    return [v._mpf_ for v in values]


# literal operands whose other side the Jacobian no longer values: a
# literal factor on either side, a literal divisor, a negated literal, the
# unit literal, and ^0 and ^1 of an affine base
LITERAL_OPERANDS = (
    "vars: x1 x2 x3\n"
    "eq: 70*x1 + (x2 - 0.3)*2.5 + 1.5*(x1*x3 - x2) - (x3 + x1)/3\n"
    "eq: -0.7*(x1 - x2) + 70*x2 + 1*(x2*x3 - 1) + (x1 - 2*x3)^1\n"
    "eq: 70*x3 + (x1 + x2)^0 - 2*(x1 - 0.5)^1*x2 + x2/-4 + -1*exp(x3 - x1)\n"
    "start: 0.7 1.3 0.5\n"
)


# powers in affine positions, whose last product the Jacobian does not
# value, and under a product, where it does
POWERS = (
    "vars: x1 x2 x3\n"
    "eq: 70*x1 + x1^3 + x2^2 - 2*x3^5 + x1^4 - 1\n"
    "eq: 70*x2 - (x1 - x2)^7 + x3^2*x1 + -x2^6\n"
    "eq: 70*x3 + (x1^3 + x2)^2 - x3^2/3\n"
    "start: 0.7 1.3 0.5\n"
)


@given(case=jacobian_cases())
@example(case=(problem_from(POWERS, CTX), pt(CTX, "0.7", "-1.3", "0.5")))
@example(case=(problem_from(EVERY_NODE_KIND, CTX), pt(CTX, "0.5", 1, "1.5")))
@example(case=(problem_from(QUOTIENT_FACTORS, CTX), pt(CTX, "0.9", "1.3")))
@example(case=(problem_from(LITERAL_OPERANDS, CTX), pt(CTX, "0.7", "1.3", "0.5")))
@example(case=(problem_from(LITERAL_OPERANDS, CTX), pt(CTX, "0.1", 2, "-0.9")))
@settings(max_examples=60)
def test_jacobian_is_bitwise_the_jet_jacobian(case):
    problem, point = case
    reference = jacobian_series(problem, point, 0).constant_matrix()
    mine = scheme.jacobian(problem, point)
    assert [_bits(row) for row in mine.entries] == [_bits(row) for row in reference.entries]


@pytest.mark.parametrize(
    "equation, error, message",
    [
        ("x1 + 3*log(x1 - 1)", DomainError, "log of a non-positive value"),
        ("x2 - 2*(x1/(x2 - 2))", DivisionByZeroJetError, "division by zero"),
        ("x1 + sqrt(-x2)*0", DomainError, "sqrt of a non-positive value"),
        ("(x1/(x2 - 2))^0 + x1", DivisionByZeroJetError, "division by zero"),
        ("x1 + x2/0", DivisionByZeroJetError, "division by zero"),
    ],
)
def test_jacobian_raises_what_the_gradient_raises(equation, error, message):
    """The Jacobian does not value these summands, but still meets their faults."""
    p = problem_from(f"vars: x1 x2\neq: {equation}\neq: x1 - x2\nstart: 1 2\n", CTX)
    for evaluate in (
        lambda: eval_jet(p.equations[0], p.start, 1, CTX),
        lambda: scheme.jacobian(p, p.start),
    ):
        with pytest.raises(error) as caught:
            evaluate()
        assert type(caught.value) is error and str(caught.value) == message


def test_build_terms_uses_one_lu_and_no_series_inverse(monkeypatch):
    p = problem_from(TWO_VAR, CTX)
    calls = []

    def counting_lu(m, ctx):
        calls.append(m)
        return lu_invert(m, ctx)

    def forbidden(name):
        def call(*args):
            raise AssertionError(f"{name} on the solve path")

        return call

    monkeypatch.setattr(scheme, "lu_invert", counting_lu)
    for name in ("series_matrix_inverse", "jacobian_series", "eval_jet"):
        monkeypatch.setattr(scheme, name, forbidden(name))
    terms = build_terms(p, p.start, neg_f(p, p.start), 7)
    assert len(terms) == 7 and len(calls) == 1


def test_a_warm_sweep_leaves_no_cyclic_garbage():
    """Every object a step builds is freed by reference counting alone."""
    p = builtin_problem("incas-3var", Context(100))
    direction = neg_f(p, p.start)
    build_terms(p, p.start, direction, 4)  # fills the memo caches
    gc.collect()
    gc.disable()
    try:
        build_terms(p, p.start, direction, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_permutation_consistency():
    ctx = CTX
    text_a = "vars: x1 x2\neq: x1 - x2\neq: x1^2 + x2^2 - 2\nstart: 4 3\n"
    text_b = "vars: x2 x1\neq: x1 - x2\neq: x1^2 + x2^2 - 2\nstart: 3 4\n"
    pa = problem_from(text_a, ctx)
    pb = problem_from(text_b, ctx)
    for k in (2, 3, 4):
        ua = update(pa, pa.start, k)
        ub = update(pb, pb.start, k)
        assert abs(ua[0] - ub[1]) < TOL and abs(ua[1] - ub[0]) < TOL


@given(c=st.integers(2, 40), k=st.integers(2, 6))
@settings(max_examples=30)
def test_symmetric_start_gives_symmetric_update(c, k):
    p = problem_from(TWO_VAR, CTX)
    point = pt(CTX, c, c)
    new = update(p, point, k)
    assert new[0] == new[1]


def test_nine_variables_converge():
    """No cap on the variable count: a step costs about one n^3 LU."""
    n = 9
    names = " ".join(f"x{i}" for i in range(n))
    eqs = "\n".join(f"eq: x{i}^2 - 1" for i in range(n))
    text = f"vars: {names}\n{eqs}\nstart: {' '.join(['4'] * n)}\n"
    p = problem_from(text, CTX)
    trace = solve(p, SolveConfig(order=3, precision=CTX.precision))
    assert trace.status is Status.CONVERGED
    assert all(abs(x - 1) < TOL for x in trace.rows[-1].x)


def test_direction_dimension_checked():
    p = problem_from(TWO_VAR, CTX)
    with pytest.raises(ShapeMismatchError):
        build_terms(p, p.start, pt(CTX, 1), 2)


@pytest.mark.parametrize("vals", [(1,), (1, 1, 1)])
def test_evaluate_system_checks_the_point_dimension(vals):
    p = problem_from(TWO_VAR, CTX)
    with pytest.raises(ShapeMismatchError, match="point dimension differs from nvars"):
        evaluate_system(p, pt(CTX, *vals))


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda p: evaluate_system(p, p.start),
        lambda p: scheme.jacobian(p, p.start),
        lambda p: build_terms(p, p.start, MPVector([p.context.one]), 2),
        lambda p: jacobian_series(p, p.start, 1),
    ],
    ids=["evaluate_system", "jacobian", "build_terms", "jacobian_series"],
)
def test_too_deep_an_expression_raises_invseries_error(ctx200, evaluate):
    text = "vars: x\neq: " + " + ".join(["x"] * 1200) + " - 1200\nstart: 2\nroot: 1\n"
    p = parse_problem(text, ctx200)
    with pytest.raises(InvseriesError) as info:
        evaluate(p)
    assert str(info.value) == NESTS_TOO_DEEPLY


def test_one_var_terms_match_log_inverse_coefficients():
    """Second closed-form oracle: exp(x) - 1 has inverse log(1 + f)."""
    ctx = CTX
    p = problem_from("vars: x\neq: exp(x) - 1\nstart: 0.5\n", ctx)
    k = 7
    point = pt(ctx, "0.5")
    terms = build_terms(p, point, pt(ctx, 1), k - 1)
    mp = ctx.mp
    f0 = mp.exp(mp.mpf("0.5")) - 1
    rel_tol = ctx.pow10(-ctx.precision + 20)
    for q, term in enumerate(terms, start=1):
        expected = (-1) ** (q - 1) / (q * (1 + f0) ** q)
        assert abs(term[0] - expected) < abs(expected) * rel_tol, f"p={q}"


@given(data=st.data())
@settings(max_examples=30)
def test_jet_gradient_matches_symbolic_diff(data):
    """First derivatives from jets agree with the symbolic-diff oracle."""
    from invseries.expr import eval_jet

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
