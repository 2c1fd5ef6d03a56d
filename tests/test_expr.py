import gc
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invseries import expr
from invseries.errors import (
    DivisionByZeroJetError,
    DomainError,
    NonSquareSystemError,
    ParseError,
    UnknownVariableError,
)
from invseries.expr import (
    BinOp,
    Call,
    Const,
    Power,
    Var,
    eval_jet,
    eval_jet_at,
    eval_partials,
    eval_scalar,
    eval_top,
    parse_expression,
    parse_problem,
)
from invseries.numerics import Context, MPVector
from invseries.taylor import (
    TaylorPoly,
    jet_compose_univariate,
    jet_constant,
    jet_mul,
    jet_neg,
    multi_indices,
)

from helpers import derivative_tensor, format_expr
from test_pinned_bits import SYNTHETIC_8

CTX = Context(60)
VARS = {"x1": 0, "x2": 1}

TWO_VAR_TEXT = """\
# comment line
vars: x1 x2
eq: x1 - x2
eq: x1^2 + x2^2 - 2   # trailing comment
start: 4 4
root: 1 1
root: -1 -1
"""


def pt(*vals):
    return MPVector([CTX.mp.mpf(v) for v in vals])


def test_parse_problem_basics():
    p = parse_problem(TWO_VAR_TEXT, CTX)
    assert p.var_names == ("x1", "x2")
    assert p.nvars == 2 and len(p.equations) == 2
    assert p.start[0] == 4 and p.start[1] == 4
    assert len(p.known_roots) == 2
    assert p.known_roots[1][0] == -1


def _mpmath_bits(ctx, text):
    """``ctx.mp.mpf(text)``'s bits; mpmath reads the digits by one ``int(str)``,
    so the interpreter's digit limit, if it has one, is lifted meanwhile."""
    if not hasattr(sys, "get_int_max_str_digits"):
        return ctx.mp.mpf(text)._mpf_
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return ctx.mp.mpf(text)._mpf_
    finally:
        sys.set_int_max_str_digits(limit)


def test_start_and_root_values_are_the_literals_bits():
    """Start and root entries are ``ctx.mp.mpf(text)`` bit for bit, and the
    very object a literal of the same text in an equation evaluates to."""
    ctx = Context(300)
    long_text = "0." + "3" * 4400  # beyond the interpreter's 4,300-digit int(str) limit
    far, farther = "1.7e-450", "2.5e401"  # beyond mpmath's ±400 exponent branch
    p = parse_problem(
        f"vars: x y\neq: x - {long_text}\neq: {far}*y - 1\n"
        f"start: {long_text} {far}\nroot: {far} {farther}\n",
        ctx,
    )
    texts = (long_text, far, far, farther)
    values = (*p.start, *p.known_roots[0])
    assert [v._mpf_ for v in values] == [_mpmath_bits(ctx, t) for t in texts]
    literals = (p.equations[0].right, p.equations[1].left.left)
    assert [c.text for c in literals] == [long_text, far]
    assert ctx.const(literals[0].text) is p.start[0]
    assert ctx.const(literals[1].text) is p.start[1] is p.known_roots[0][0]


def test_non_square_system():
    text = "vars: x1 x2 x3\neq: x1 - x2\neq: x2 - x3\nstart: 1 1 1\n"
    with pytest.raises(NonSquareSystemError):
        parse_problem(text, CTX)


def test_unknown_variable_has_line_number():
    text = "vars: x1\neq: x1 + y\nstart: 1\n"
    with pytest.raises(UnknownVariableError) as exc:
        parse_problem(text, CTX)
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("vars: x1\nstart: 1\n", "1 variables but 0 equations"),
        ("vars: x1\neq: x1\n", "missing start"),
        ("eq: x1\n", "eq before vars"),
        ("vars: x1\neq: x1\nstart: 1 2\n", "needs 1 value"),
        ("vars: x1\neq: x1\nstart: 1\nroot: 1 2\n", "needs 1 value"),
        ("vars: x1\neq: x1\nstart: bogus\n", "not a decimal"),
        ("vars: x1 x1\neq: x1\nstart: 1\n", "duplicate variable"),
        ("vars: exp\neq: exp\nstart: 1\n", "reserved"),
        ("vars: 1x\neq: 1\nstart: 1\n", "invalid variable name"),
        ("vars: x1\neq: x1 +\nstart: 1\n", "unexpected end of expression"),
        ("vars: x1\neq: x1 + )\nstart: 1\n", "unexpected token ')'"),
        ("vars: x1\neq: (x1\nstart: 1\n", "expected ')', found end of expression"),
        ("vars: x1\neq: sin(x1 x1)\nstart: 1\n", "expected ')', found 'x1'"),
        ("vars: x1\neq: x1^\nstart: 1\n", "integer literal, found end of expression"),
        ("vars: x1\neq: sin x1\nstart: 1\n", "'sin' is a function and needs parentheses"),
        ("vars: x1\neq: x1 x1\nstart: 1\n", "trailing input starting at 'x1'"),
        ("vars: x1\neq: x1 $ 2\nstart: 1\n", "unexpected character"),
        ("vars: x1\nwhat: 3\neq: x1\nstart: 1\n", "unknown key"),
        ("vars: x1\nstart: 1\neq: x1\n", "eq after start"),
        ("vars: x1\nroot: 1\neq: x1\nstart: 1\n", "root before start"),
        ("vars: x1\neq: x1^-1\nstart: 1\n", "non-negative integer"),
        ("vars: x1\neq: x1^2^3\nstart: 1\n", "chained"),
        ("vars: x1\neq: x1^x1\nstart: 1\n", "non-negative integer"),
        ("vars: x1\neq: foo(x1)\nstart: 1\n", "unknown function"),
        ("", "missing vars"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_problem(text, CTX)
    assert fragment in str(exc.value)


def test_parsing_leaves_no_reference_cycles():
    """Parsing leaves no cyclic garbage, which would stay in memory until
    the collector ran."""
    ctx = Context(300)
    gc.collect()
    gc.disable()
    try:
        parse_problem(SYNTHETIC_8, ctx)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_eval_scalar_examples():
    p = parse_problem(TWO_VAR_TEXT, CTX)
    f1, f2 = p.equations
    assert eval_scalar(f2, pt(4, 4), CTX) == 30
    assert eval_scalar(f2, pt(1, 1), CTX) == 0
    assert eval_scalar(f1, pt("2.5", "2.5"), CTX) == 0


@given(c=st.integers(-50, 50))
def test_difference_vanishes_on_diagonal(c):
    f1 = parse_expression("x1 - x2", VARS)
    assert eval_scalar(f1, pt(c, c), CTX) == 0


def test_eval_scalar_division_and_domain():
    e = parse_expression("1 / x1", {"x1": 0})
    with pytest.raises(ZeroDivisionError):
        eval_scalar(e, pt(0), CTX)
    for text in ("log(x1)", "sqrt(x1)"):
        e = parse_expression(text, {"x1": 0})
        with pytest.raises(DomainError):
            eval_scalar(e, pt(0), CTX)
        with pytest.raises(DomainError):
            eval_scalar(e, pt(-2), CTX)


def test_eval_scalar_divides_by_a_tiny_denominator():
    ctx = Context(1000)
    e = parse_expression("x1 / 1e-600", {"x1": 0})
    value = eval_scalar(e, MPVector([ctx.mp.mpf(3)]), ctx)
    assert abs(value / ctx.mp.mpf("3e600") - 1) < ctx.pow10(-990)


def test_univariate_seeds_give_directional_coefficients():
    """Along the line x(t) = a + t·b, the degree-p coefficient of f(x(t)) is
    the sum over |alpha| = p of coeff(alpha)·b^alpha of f's jet at a."""
    e = parse_expression(
        "exp(x1) / (2 + x2) - sqrt(x1 + x2)^3 + log(x1) * sin(x2) - cos(-x1 * x2)",
        VARS,
    )
    a, b, d = pt("0.75", "0.5"), pt("0.25", "-1.5"), 5
    multi = eval_jet(e, a, d, CTX)
    keys = multi_indices(1, d)
    seeds = [
        TaylorPoly(CTX, 1, d, dict(zip(keys, [ai, bi] + [CTX.zero] * (d - 1))))
        for ai, bi in zip(a, b)
    ]
    line = eval_jet_at(e, seeds, CTX)
    for p in range(d + 1):
        expected = sum(
            c * b[0] ** alpha[0] * b[1] ** alpha[1]
            for alpha, c in multi.coeffs.items()
            if sum(alpha) == p
        )
        assert abs(line.coeffs[(p,)] - expected) < CTX.pow10(-CTX.precision + 15)


def test_eval_jet_matches_scalar_constant_term():
    p = parse_problem(TWO_VAR_TEXT, CTX)
    for eq in p.equations:
        for point in (pt(4, 4), pt("1.5", "-0.25"), pt(1, 1)):
            jet = eval_jet(eq, point, 3, CTX)
            assert jet.value() == eval_scalar(eq, point, CTX)


def test_eval_jet_quadratic_derivatives():
    p = parse_problem(TWO_VAR_TEXT, CTX)
    jet = eval_jet(p.equations[1], pt(4, 4), 2, CTX)
    assert jet.value() == 30
    assert derivative_tensor(jet, 1) == [8, 8]
    hess = derivative_tensor(jet, 2)
    assert hess[0][0] == 2 and hess[1][1] == 2 and hess[0][1] == 0


def test_eval_jet_affine_has_no_curvature():
    e = parse_expression("3*x1 - 2*x2 + 5", VARS)
    jet = eval_jet(e, pt(1, 2), 3, CTX)
    assert all(c == 0 for a, c in jet.coeffs.items() if sum(a) >= 2)


def test_gradient_has_no_entries_for_constant_subtrees():
    e = parse_expression("2*3 - exp(1) / 4 + x2^0 + sin(x2)", VARS)
    grad = eval_partials(e, pt("0.5", "0.25"), CTX)
    assert list(grad) == [1]
    assert grad[1] == CTX.mp.cos(CTX.mp.mpf("0.25"))
    assert eval_partials(parse_expression("1.5 * 4", VARS), pt(1, 2), CTX) == {}


def test_gradient_carries_the_jet_quotient_value():
    """A quotient is a·(1/b) as in the jet, not eval_scalar's a/b."""
    e = parse_expression("x1 / x2", VARS)
    r = CTX.one / 3
    assert eval_partials(e, pt(1, 3), CTX) == {0: r, 1: 1 * (-r * r * 1)}


@pytest.mark.parametrize(
    "text, products",
    [
        ("x1^2 + x2", 0),  # 2·x1 is a sum: the square itself is never read
        ("x1^3 + x2", 2),  # x1·x1 for the cube's partial, then x1·(2·x1)
        ("x1^3 * x2", 4),  # a factor's value is read: x1·x1·x1 too, and x1^3·1 is skipped
    ],
)
def test_gradient_values_a_power_only_when_read(monkeypatch, text, products):
    """The last product of ``binary_power`` is the power, valued only for a
    caller that reads it; the partials keep the jet's bits."""
    e = parse_expression(text, VARS)
    point = pt("0.7", "1.3")
    mpf = type(CTX.one)
    count = []
    plain_mul = mpf.__mul__

    def counted_mul(a, b):
        count.append(1)
        return plain_mul(a, b)

    monkeypatch.setattr(mpf, "__mul__", counted_mul)
    grad = eval_partials(e, point, CTX)
    monkeypatch.undo()
    assert len(count) == products
    jet = eval_jet(e, point, 1, CTX)
    assert {i: g._mpf_ for i, g in grad.items()} == {
        i: jet.coeffs[tuple(int(j == i) for j in range(2))]._mpf_ for i in grad
    }


def _const_jet(text):
    return jet_constant(CTX, CTX.const(text), 2, 4)


@pytest.mark.parametrize(
    "text, inner, reference",
    [
        ("2.5 * (x1*x2)", "x1*x2", lambda e: jet_mul(_const_jet("2.5"), e)),
        ("(x1*x2) * 2.5", "x1*x2", lambda e: jet_mul(e, _const_jet("2.5"))),
        (
            "(x1*x2) / 2.5",
            "x1*x2",
            lambda e: jet_mul(e, jet_compose_univariate("recip", _const_jet("2.5"))),
        ),
        (
            "0.3 * sin(x1) / 7",
            "sin(x1)",
            lambda e: jet_mul(
                jet_mul(_const_jet("0.3"), e), jet_compose_univariate("recip", _const_jet("7"))
            ),
        ),
        ("x1^2 * 0", "x1^2", lambda e: jet_mul(e, _const_jet("0"))),
        ("-2.5 * (x1*x2)", "x1*x2", lambda e: jet_mul(jet_neg(_const_jet("2.5")), e)),
        (
            "(x1*x2) / -2.5",
            "x1*x2",
            lambda e: jet_mul(e, jet_compose_univariate("recip", jet_neg(_const_jet("2.5")))),
        ),
    ],
)
def test_constant_factor_and_divisor_are_bitwise_the_jet_products(text, inner, reference):
    point = pt("0.7", "1.3")
    got = eval_jet(parse_expression(text, VARS), point, 4, CTX)
    want = reference(eval_jet(parse_expression(inner, VARS), point, 4, CTX))
    assert [c._mpf_ for c in got.coeffs.values()] == [c._mpf_ for c in want.coeffs.values()]


def test_a_zero_constant_divisor_is_refused():
    for text in ("x1 / 0", "x1 / 0.0", "(x1 + x2) / 0e5"):
        with pytest.raises(DivisionByZeroJetError):
            eval_jet(parse_expression(text, VARS), pt(1, 2), 2, CTX)


def test_gradient_refuses_what_the_jet_refuses():
    """eval_scalar, eval_partials and eval_jet fail alike: same class, same message."""
    point = pt(1, 2)
    evaluators = (
        lambda e: eval_scalar(e, point, CTX),
        lambda e: eval_partials(e, point, CTX),
        lambda e: eval_jet(e, point, 2, CTX),
    )
    cases = [
        ("x1 / (x2 - 2)", DivisionByZeroJetError, "division by zero"),
        ("x1 / 0", DivisionByZeroJetError, "division by zero"),
        ("log(x1 - 1)", DomainError, "log of a non-positive value"),
        ("sqrt(x1 - 1)", DomainError, "sqrt of a non-positive value"),
        ("sqrt(-x2)", DomainError, "sqrt of a non-positive value"),
        ("log(x1 - 3)^0", DomainError, "log of a non-positive value"),
        ("(x1 / (x2 - 2))^0 + x1", DivisionByZeroJetError, "division by zero"),
    ]
    for text, error, message in cases:
        e = parse_expression(text, VARS)
        for evaluate in evaluators:
            with pytest.raises(error) as caught:
                evaluate(e)
            assert type(caught.value) is error and str(caught.value) == message


# univariate seeds of degree 3 whose top coefficients are 0, as in the path sweeps
TOP_SEEDS = [
    TaylorPoly(CTX, 1, 3, dict(zip(multi_indices(1, 3), map(CTX.mp.mpf, cs))))
    for cs in (("0.7", "1.3", "-0.4", 0), ("1.1", "-0.6", "0.25", 0))
]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("3*x1 - x2/2 + 5", None),
        ("-(x1 - 4) * 2", None),
        ("(x1 + 1)^1 - x2^0", None),
        ("sin(x1)^0", None),
        ("3 - x1*x2", "-(x1*x2)"),
        ("x1 - (x2 + x1^2)", "-(x1^2)"),
        ("(x1 + x1*x2) / 4", "(x1*x2) / 4"),
        ("2*(x1 - x2^2) + x2*3", "2*(-(x2^2))"),
        ("(x1*x2)^1 + x2", "(x1*x2)^1"),
        ("exp(x1) - x2", "exp(x1)"),
        ("(x1 + 1)*(x2 - 1) + x1", "(x1 + 1)*(x2 - 1)"),
        ("1/(x1 + 2) + x1^2", "1/(x1 + 2) + x1^2"),
        ("- 0.5*(x1 + 1) + x1*x2", "x1*x2"),
        ("x1*x2 + x2/-4", "x1*x2"),
        # the equations of TWO_VAR_TEXT
        ("x1 - x2", None),
        ("x1^2 + x2^2 - 2", "x1^2 + x2^2"),
    ],
)
def test_eval_top_drops_affine_summands(monkeypatch, text, expected):
    """``eval_top`` is bit for bit the top coefficient of the full sweep and
    of the sweep of ``expected``, the expression without its affine
    summands; an affine expression is an exact 0, and no jet is built for
    it unless it has a power: ^0 and ^1 are swept like any other."""
    e = parse_expression(text, VARS)
    full = eval_jet_at(e, TOP_SEEDS, CTX).coeffs[(3,)]
    built = []

    def counting(fn):
        def call(*args):
            built.append(fn.__name__)
            return fn(*args)

        return call

    monkeypatch.setattr(expr, "eval_jet_at", counting(eval_jet_at))
    monkeypatch.setattr(expr, "jet_mul", counting(jet_mul))
    top = eval_top(e, TOP_SEEDS, CTX)
    if expected is None:
        assert top._mpf_ == full._mpf_ == CTX.zero._mpf_
        assert bool(built) == ("^" in text)
    else:
        part = eval_jet_at(parse_expression(expected, VARS), TOP_SEEDS, CTX)
        assert top._mpf_ == full._mpf_ == part.coeffs[(3,)]._mpf_ and built


def test_eval_jet_constant_expression():
    e = parse_expression("4.5", VARS)
    jet = eval_jet(e, pt(1, 2), 2, CTX)
    assert jet.value() == CTX.mp.mpf("4.5")
    assert all(c == 0 for a, c in jet.coeffs.items() if sum(a) >= 1)


@pytest.mark.parametrize(
    "text, tree",
    [
        ("-2", Const("-2")),
        ("- -2", Const("2")),
        ("-2^2", BinOp("*", Const("-1"), Power(Const("2"), 2))),
        ("(-2)^2", Power(Const("-2"), 2)),
        ("-x1", BinOp("*", Const("-1"), Var(0, "x1"))),
        ("2*-3", BinOp("*", Const("2"), Const("-3"))),
    ],
)
def test_a_unary_minus_parses_as_a_signed_literal_or_a_product_with_minus_one(text, tree):
    assert parse_expression(text, VARS) == tree


SHAPE_VARS = {name: i for i, name in enumerate("abcde")}
A, B, C, D, E = (Var(i, name) for name, i in SHAPE_VARS.items())


@pytest.mark.parametrize(
    "text, tree",
    [
        ("a - b - c", BinOp("-", BinOp("-", A, B), C)),
        ("a / b * c", BinOp("*", BinOp("/", A, B), C)),
        ("a + b*c - d/e", BinOp("-", BinOp("+", A, BinOp("*", B, C)), BinOp("/", D, E))),
        ("-a*b", BinOp("*", BinOp("*", Const("-1"), A), B)),
        ("-a^2", BinOp("*", Const("-1"), Power(A, 2))),
        ("(a)", A),
        ("sin(a)^2", Power(Call("sin", A), 2)),
    ],
)
def test_parse_shapes(text, tree):
    """``^`` binds tightest, then a sign, then ``* /``, then ``+ -``; each
    binary chain associates to the left.  (``2*-3`` is a case of the
    unary-minus test above.)"""
    assert parse_expression(text, SHAPE_VARS) == tree


def test_nodes_are_equal_by_class_and_fields():
    text = "x1 + 2*x2^3 - sin(x1)/4"
    first, second = parse_expression(text, VARS), parse_expression(text, VARS)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    # a frozen dataclass's hash: that of its fields as a tuple
    assert hash(Var(0, "x1")) == hash((0, "x1"))
    # equal fields, different classes
    assert Var(0, "x1") != Call(0, "x1")
    assert Power(A, 2) != Call(A, 2)
    assert Const("2") != "2" and Const("2") != ("2",)


@pytest.mark.parametrize(
    "node, fields",
    [
        (Const("2"), ("text",)),
        (Var(0, "x1"), ("index", "name")),
        (BinOp("+", A, B), ("op", "left", "right")),
        (Power(A, 2), ("base", "exponent")),
        (Call("sin", A), ("fn", "arg")),
    ],
)
def test_nodes_are_slotted(node, fields):
    """A node keeps its fields in slots, in order, and has no ``__dict__``:
    trees are built once per equation and walked by every evaluator."""
    assert type(node).__slots__ == fields
    assert not hasattr(node, "__dict__")


def test_node_repr_is_the_dataclass_text():
    assert repr(parse_expression("x1 + 2*x2^3", VARS)) == (
        "BinOp(op='+', left=Var(index=0, name='x1'), right=BinOp(op='*', "
        "left=Const(text='2'), right=Power(base=Var(index=1, name='x2'), exponent=3)))"
    )


def test_precedence():
    cases = [
        ("x1 - x2 - x1", pt(1, 2), -2),  # left associative
        ("2*x1^2", pt(3, 0), 18),  # power binds tighter than *
        ("-x1^2", pt(2, 0), -4),  # unary minus under power
        ("x1/x2/x2", pt(8, 2), 2),  # left associative division
        ("x1 + x2*x1", pt(2, 3), 8),
        ("(x1 + x2)*x1", pt(2, 3), 10),
        ("2^3", pt(0, 0), 8),
        ("-x1 - -x2", pt(1, 5), 4),
    ]
    for text, point, expected in cases:
        e = parse_expression(text, VARS)
        assert eval_scalar(e, point, CTX) == expected, text


# recursive strategy over ASTs for the print/parse round trip
_leaf = st.one_of(
    st.sampled_from([Var(0, "x1"), Var(1, "x2")]),
    st.integers(-99, 99).map(lambda n: Const(str(n))),
    st.sampled_from([Const("1.5"), Const("-0.25"), Const("2e3"), Const("-2e-3")]),
)
_expr_strategy = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.builds(lambda e: BinOp("*", Const("-1"), e), inner),
        st.builds(
            BinOp, st.sampled_from(["+", "-", "*", "/"]), inner, inner
        ),
        st.builds(Power, inner, st.integers(0, 4)),
        st.builds(Call, st.sampled_from(["exp", "log", "sin", "cos", "sqrt"]), inner),
    ),
    max_leaves=25,
)


@given(e=_expr_strategy)
@settings(max_examples=150)
def test_print_parse_round_trip(e):
    text = format_expr(e)
    assert parse_expression(text, VARS) == e


def test_round_trip_of_corpus_equations():
    p = parse_problem(TWO_VAR_TEXT, CTX)
    for eq in p.equations:
        assert parse_expression(format_expr(eq), VARS) == eq
