import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invseries import taylor
from invseries.errors import (
    DivisionByZeroJetError,
    DomainError,
    ShapeMismatchError,
)
from invseries.expr import RESERVED_FUNCTIONS, Power, eval_jet, eval_jet_at, parse_expression
from invseries.numerics import Context, MPVector
from invseries.taylor import (
    TaylorPoly,
    binary_power,
    jet_add,
    jet_compose_univariate,
    jet_constant,
    jet_mul,
    jet_neg,
    jet_partial,
    jet_sub,
    jet_var,
    multi_indices,
    univariate_series,
)

from helpers import (
    counting_context,
    derivative_tensor,
    max_coeff_diff,
    schoolbook_jet_mul,
    truncated,
)

CTX = Context(60)
TOL = CTX.pow10(-CTX.precision + 15)


def coeffs_strategy(nvars, degree, lo=-6, hi=6):
    table = multi_indices(nvars, degree)
    return st.lists(
        st.integers(lo, hi), min_size=len(table), max_size=len(table)
    ).map(
        lambda vals: TaylorPoly(
            CTX, nvars, degree, dict(zip(table, (CTX.mp.mpf(v) for v in vals)))
        )
    )


polys_2_3 = coeffs_strategy(2, 3)


@pytest.mark.parametrize(
    "nvars,degree", [(1, 0), (1, 5), (2, 3), (3, 2), (4, 4)]
)
def test_index_table_size_and_order(nvars, degree):
    table = multi_indices(nvars, degree)
    assert len(table) == math.comb(nvars + degree, degree)
    keys = [(sum(t), t) for t in table]
    assert keys == sorted(keys)
    assert len(set(table)) == len(table)


def test_jet_var_examples():
    p = jet_var(CTX, 0, CTX.mp.mpf(4), 2, 3)
    assert p.coeffs[(0, 0)] == 4
    assert p.coeffs[(1, 0)] == 1
    assert sum(1 for c in p.coeffs.values() if c != 0) == 2

    q = jet_var(CTX, 1, CTX.mp.mpf(-1), 3, 2)
    assert q.coeffs[(0, 0, 0)] == -1
    assert q.coeffs[(0, 1, 0)] == 1

    r = jet_var(CTX, 0, CTX.mp.mpf(7), 1, 0)
    assert r.coeffs == {(0,): CTX.mp.mpf(7)}


def test_jet_var_index_range():
    with pytest.raises(ShapeMismatchError):
        jet_var(CTX, 2, CTX.one, 2, 1)


def test_mul_binomial():
    x = jet_var(CTX, 0, CTX.mp.mpf(4), 1, 2)
    sq = jet_mul(x, x)
    assert sq.coeffs[(0,)] == 16
    assert sq.coeffs[(1,)] == 8
    assert sq.coeffs[(2,)] == 1


def test_two_var_quadratic_jet():
    # x1^2 + x2^2 - 2 around (4, 4): value 30, gradient coeffs (8, 8),
    # pure quadratic coeffs (1, 1), no mixed term
    x1 = jet_var(CTX, 0, CTX.mp.mpf(4), 2, 2)
    x2 = jet_var(CTX, 1, CTX.mp.mpf(4), 2, 2)
    f = jet_sub(jet_add(jet_mul(x1, x1), jet_mul(x2, x2)), jet_constant(CTX, 2, 2, 2))
    assert f.coeffs[(0, 0)] == 30
    assert f.coeffs[(1, 0)] == 8 and f.coeffs[(0, 1)] == 8
    assert f.coeffs[(2, 0)] == 1 and f.coeffs[(0, 2)] == 1
    assert f.coeffs[(1, 1)] == 0


@given(a=polys_2_3, b=polys_2_3)
@settings(max_examples=60)
def test_mul_commutes(a, b):
    assert max_coeff_diff(jet_mul(a, b), jet_mul(b, a)) < TOL


@given(a=polys_2_3, b=polys_2_3, c=polys_2_3)
@settings(max_examples=40)
def test_ring_laws(a, b, c):
    assert max_coeff_diff(jet_add(jet_add(a, b), c), jet_add(a, jet_add(b, c))) < TOL
    assert max_coeff_diff(jet_mul(jet_mul(a, b), c), jet_mul(a, jet_mul(b, c))) < TOL
    assert (
        max_coeff_diff(jet_mul(a, jet_add(b, c)), jet_add(jet_mul(a, b), jet_mul(a, c)))
        < TOL
    )


def test_shape_mismatch_rejected():
    a = jet_constant(CTX, 1, 2, 3)
    b = jet_constant(CTX, 1, 2, 2)
    with pytest.raises(ShapeMismatchError):
        jet_add(a, b)
    with pytest.raises(ShapeMismatchError):
        jet_mul(a, jet_constant(CTX, 1, 3, 3))


def test_recip_constant():
    r = jet_compose_univariate("recip", jet_constant(CTX, 2, 1, 0))
    assert r.value() == CTX.mp.mpf("0.5")


def test_recip_geometric_series():
    one_plus_h = jet_var(CTX, 0, CTX.one, 1, 3)
    r = jet_compose_univariate("recip", one_plus_h)
    for k, expected in enumerate([1, -1, 1, -1]):
        assert abs(r.coeffs[(k,)] - expected) < TOL


def test_recip_zero_constant_term():
    h = jet_var(CTX, 0, CTX.zero, 1, 3)
    with pytest.raises(DivisionByZeroJetError):
        jet_compose_univariate("recip", h)


def test_recip_of_a_tiny_constant_term():
    # only an exact zero has no reciprocal, however small the working scale
    ctx = Context(1000)
    r = jet_compose_univariate("recip", jet_constant(ctx, "1e-600", 1, 2))
    assert abs(r.value() * ctx.mp.mpf("1e-600") - 1) < ctx.pow10(-990)


@given(a=polys_2_3, const=st.integers(1, 9))
@settings(max_examples=40)
def test_recip_defining_property(a, const):
    shifted = jet_add(a, jet_constant(CTX, 10 * const, 2, 3))
    prod = jet_mul(shifted, jet_compose_univariate("recip", shifted))
    one = jet_constant(CTX, 1, 2, 3)
    assert max_coeff_diff(prod, one) < TOL


def test_compose_exp_series():
    h = jet_var(CTX, 0, CTX.zero, 1, 4)
    e = jet_compose_univariate("exp", h)
    one = CTX.one
    for k, expected in enumerate([one, one, one / 2, one / 6, one / 24]):
        assert abs(e.coeffs[(k,)] - expected) < TOL


def test_compose_sqrt_constant():
    assert jet_compose_univariate("sqrt", jet_constant(CTX, 16, 1, 2)).value() == 4


def test_compose_sqrt_around_16():
    # sqrt(16 + u): these coefficients are exact binary fractions
    u = jet_var(CTX, 0, CTX.mp.mpf(16), 1, 4)
    s = jet_compose_univariate("sqrt", u)
    mp = CTX.mp
    expected = [
        mp.mpf(4),
        mp.mpf("0.125"),
        mp.mpf("-1.953125e-3"),
        mp.mpf("6.103515625e-5"),
        mp.mpf("-2.384185791015625e-6"),
    ]
    for k, value in enumerate(expected):
        assert s.coeffs[(k,)] == value


def test_compose_trig_values():
    mp = CTX.mp
    h = jet_var(CTX, 0, mp.mpf("0.3"), 1, 3)
    s = jet_compose_univariate("sin", h)
    c = jet_compose_univariate("cos", h)
    assert abs(s.value() - mp.sin(mp.mpf("0.3"))) < TOL
    assert abs(s.coeffs[(1,)] - mp.cos(mp.mpf("0.3"))) < TOL
    assert abs(c.coeffs[(1,)] + mp.sin(mp.mpf("0.3"))) < TOL
    # sin^2 + cos^2 == 1 as jets
    unit = jet_add(jet_mul(s, s), jet_mul(c, c))
    assert max_coeff_diff(unit, jet_constant(CTX, 1, 1, 3)) < TOL


def sparse_jets(nvars, degree):
    """Jets with full-mantissa coefficients and exact zeros mixed in."""
    size = len(multi_indices(nvars, degree))
    entry = st.one_of(st.just((0, 1)), st.tuples(st.integers(-999, 999), st.integers(1, 999)))

    def build(pairs):
        values = (CTX.mp.mpf(num) / den for num, den in pairs)
        return TaylorPoly(CTX, nvars, degree, dict(zip(multi_indices(nvars, degree), values)))

    return st.lists(entry, min_size=size, max_size=size).map(build)


def _bits(jet):
    return [(alpha, c._mpf_) for alpha, c in jet.coeffs.items()]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_jet_mul_is_bitwise_the_schoolbook_product(data):
    """Whatever order the coefficients are read in: each is summed on its
    first read, and a lazy factor is read through its own memo."""
    nvars = data.draw(st.integers(1, 3))
    degree = data.draw(st.integers(0, 6))
    a = data.draw(sparse_jets(nvars, degree))
    b = data.draw(sparse_jets(nvars, degree))
    twin = TaylorPoly(CTX, nvars, degree, dict(a.coeffs))  # equal, not identical
    ab, lazy_ab = schoolbook_jet_mul(a, b), jet_mul(a, b)
    cases = [(x, y, schoolbook_jet_mul(x, y)) for x, y in ((a, b), (b, a), (a, a), (a, twin))]
    cases += [
        (lazy_ab, a, schoolbook_jet_mul(ab, a)),
        (lazy_ab, lazy_ab, schoolbook_jet_mul(ab, ab)),
    ]
    keys = multi_indices(nvars, degree)
    for x, y, reference in cases:
        product = jet_mul(x, y)
        read = {key: product.coeffs[key]._mpf_ for key in data.draw(st.permutations(keys))}
        assert [(key, read[key]) for key in keys] == _bits(reference)


def test_reading_the_top_of_a_square_sums_that_coefficient_alone():
    """A sweep's seed has an exact 0 at its top degree; the top of its
    square takes the 3 products a_j·a_(7-j), j = 1..3, each used twice.
    The other coefficients take the remaining 16 of the 19 a full
    square computes."""
    calls = []

    class Counted(type(CTX.one)):
        def __mul__(self, other):
            calls.append((self, other))
            return super().__mul__(other)

    values = [Counted(CTX.mp.mpf(num) / 7) for num in (3, -5, 2, 9, -4, 6, 1)]
    seed = TaylorPoly(CTX, 1, 7, dict(zip(multi_indices(1, 7), values + [CTX.zero])))
    plain = TaylorPoly(CTX, 1, 7, {key: CTX.mp.mpf(c) for key, c in seed.coeffs.items()})
    square = jet_mul(seed, seed)
    top = square.coeffs[(7,)]
    assert len(calls) == 3
    assert top._mpf_ == schoolbook_jet_mul(plain, plain).coeffs[(7,)]._mpf_
    assert _bits(square) == _bits(schoolbook_jet_mul(plain, plain))
    assert len(calls) == 19
    _bits(square)  # memoized: a second read multiplies nothing
    assert len(calls) == 19


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_product_with_a_constant_jet_scales_each_coefficient(data):
    nvars = data.draw(st.integers(1, 3))
    degree = data.draw(st.integers(0, 5))
    a = data.draw(sparse_jets(nvars, degree))
    num, den = data.draw(st.tuples(st.integers(-999, 999), st.integers(1, 999)))
    s = CTX.mp.mpf(num) / den
    constant = jet_constant(CTX, s, nvars, degree)
    before = _bits(a)
    scaled = [(alpha, (s * c if c else CTX.zero)._mpf_) for alpha, c in a.coeffs.items()]
    assert _bits(jet_mul(constant, a)) == _bits(jet_mul(a, constant)) == scaled
    # a constant divisor: the recip composition of a constant jet is the constant 1/s
    if s:
        recip = jet_compose_univariate("recip", constant)
        assert _bits(recip) == _bits(jet_constant(CTX, CTX.mp.mpf(1) / s, nvars, degree))
    assert _bits(a) == before


def test_pow_int_is_bitwise_the_powering_from_one():
    """Starting from the base drops only the exact products by 1."""
    x = jet_var(CTX, 0, CTX.mp.mpf("1.5"), 2, 4)
    y = jet_add(x, jet_var(CTX, 1, CTX.mp.mpf("0.3"), 2, 4))
    for base in (x, jet_mul(x, y)):
        for exponent in range(1, 7):
            ref, square, e = jet_constant(CTX, 1, 2, 4), base, exponent
            while e:
                if e & 1:
                    ref = schoolbook_jet_mul(ref, square)
                e >>= 1
                if e:
                    square = schoolbook_jet_mul(square, square)
            assert _bits(binary_power(base, exponent, jet_mul)) == _bits(ref)
    assert binary_power(x, 1, jet_mul) is x


def _schoolbook_compose(series, a):
    n, d = a.nvars, a.max_degree
    shifted = TaylorPoly(CTX, n, d, {**a.coeffs, (0,) * n: CTX.zero})
    result = jet_constant(CTX, series[-1], n, d)
    for s in reversed(series[:-1]):
        result = jet_add(schoolbook_jet_mul(result, shifted), jet_constant(CTX, s, n, d))
    return result


@pytest.mark.parametrize("fn", ["exp", "log", "sqrt", "sin", "cos"])
def test_composition_is_bitwise_the_schoolbook_horner(fn):
    x = jet_var(CTX, 0, CTX.mp.mpf("0.7"), 2, 4)
    a = jet_add(x, jet_mul(x, jet_var(CTX, 1, CTX.mp.mpf("0.3"), 2, 4)))
    before = _bits(a)
    series = univariate_series(fn, a.value(), 4, CTX)
    assert _bits(jet_compose_univariate(fn, a)) == _bits(_schoolbook_compose(series, a))
    inv = [CTX.one / a.value()]
    for _ in range(4):
        inv.append(-inv[-1] * inv[0])
    assert _bits(jet_compose_univariate("recip", a)) == _bits(_schoolbook_compose(inv, a))
    assert _bits(a) == before


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_constant_jet_composes_at_degree_zero(data):
    """Its series is read at degree 0 only, with the bits of the full Horner."""
    fn = data.draw(st.sampled_from(["exp", "log", "sqrt", "sin", "cos", "recip"]))
    nvars = data.draw(st.integers(1, 3))
    degree = data.draw(st.integers(0, 6))
    num, den = data.draw(st.tuples(st.integers(1, 999), st.integers(1, 999)))
    sign = 1 if fn in ("log", "sqrt") else data.draw(st.sampled_from([1, -1]))
    c = CTX.mp.mpf(sign * num) / den
    constant = jet_constant(CTX, c, nvars, degree)
    with mock.patch.object(taylor, "univariate_series", wraps=univariate_series) as spy:
        composed = jet_compose_univariate(fn, constant)
    assert [call.args[2] for call in spy.call_args_list] == [0]
    s0 = univariate_series(fn, c, 0, CTX)[0]
    assert _bits(composed) == _bits(jet_constant(CTX, s0, nvars, degree))
    full = univariate_series(fn, c, degree, CTX)
    assert _bits(composed) == _bits(_schoolbook_compose(full, constant))


@pytest.mark.parametrize("fn", ["sin", "cos"])
def test_trig_series_calls_sin_and_cos_once(fn):
    mp = CTX.mp
    c = mp.mpf("0.3")
    ctx = counting_context(CTX.precision)
    series = univariate_series(fn, c, 7, ctx)
    # the other function and a lower degree at the same point reuse it
    univariate_series("cos" if fn == "sin" else "sin", c, 3, ctx)
    univariate_series(fn, c, 1, ctx)
    assert ctx.mp.calls == [("cos_sin", c._mpf_)]
    sin_c, cos_c = mp.sin(c), mp.cos(c)
    cycle = [sin_c, cos_c, -sin_c, -cos_c] * 3
    start = 0 if fn == "sin" else 1
    assert series == [cycle[start + k] / math.factorial(k) for k in range(8)]


def test_compose_domain_errors():
    neg = jet_constant(CTX, -1, 1, 2)
    zero = jet_constant(CTX, 0, 1, 2)
    for fn in ("log", "sqrt"):
        with pytest.raises(DomainError):
            jet_compose_univariate(fn, neg)
        with pytest.raises(DomainError):
            jet_compose_univariate(fn, zero)
    with pytest.raises(DomainError):
        jet_compose_univariate("tan", neg)
    with pytest.raises(DomainError):
        jet_compose_univariate("pow_int", neg)  # missing exponent


def test_pow_int_matches_repeated_mul():
    x = jet_var(CTX, 0, CTX.mp.mpf("1.5"), 2, 3)
    cube = binary_power(x, 3, jet_mul)
    assert max_coeff_diff(cube, jet_mul(jet_mul(x, x), x)) < TOL


def test_zeroth_power_is_the_constant_jet_one_after_its_base():
    """``^0`` reads nothing of its base, but a fault inside the base still raises."""
    seeds = [jet_var(CTX, i, CTX.mp.mpf(v), 2, 3) for i, v in enumerate(("1.5", "0.3"))]
    names = {"x1": 0, "x2": 1}
    zeroth = eval_jet_at(Power(parse_expression("x1*x2 + exp(x2)", names), 0), seeds, CTX)
    assert _bits(zeroth) == _bits(jet_constant(CTX, CTX.one, 2, 3))
    with pytest.raises(DomainError, match="log of a non-positive value"):
        eval_jet_at(Power(parse_expression("x1 + log(-x2)", names), 0), seeds, CTX)


def test_exp_of_sum_factors():
    x1 = jet_var(CTX, 0, CTX.mp.mpf("0.2"), 2, 3)
    x2 = jet_var(CTX, 1, CTX.mp.mpf("0.5"), 2, 3)
    lhs = jet_compose_univariate("exp", jet_add(x1, x2))
    rhs = jet_mul(
        jet_compose_univariate("exp", x1), jet_compose_univariate("exp", x2)
    )
    assert max_coeff_diff(lhs, rhs) < TOL


def test_partial_examples():
    x = jet_var(CTX, 0, CTX.mp.mpf(4), 1, 2)
    sq = jet_mul(x, x)  # 16 + 8h + h^2
    d = jet_partial(sq, 0)
    assert d.max_degree == 1
    assert d.coeffs[(0,)] == 8
    assert d.coeffs[(1,)] == 2

    only_x0 = jet_var(CTX, 0, CTX.one, 2, 3)
    zero = jet_partial(only_x0, 1)
    assert all(c == 0 for c in zero.coeffs.values())

    const = jet_constant(CTX, 5, 1, 0)
    assert jet_partial(const, 0).max_degree == 0
    assert jet_partial(const, 0).value() == 0


@given(a=polys_2_3, b=polys_2_3, i=st.integers(0, 1))
@settings(max_examples=40)
def test_partial_product_rule(a, b, i):
    lhs = jet_partial(jet_mul(a, b), i)
    rhs = jet_add(
        jet_mul(jet_partial(a, i), truncated(b, 2)),
        jet_mul(truncated(a, 2), jet_partial(b, i)),
    )
    assert max_coeff_diff(lhs, rhs) < TOL


def test_derivative_tensor_gradient():
    x1 = jet_var(CTX, 0, CTX.mp.mpf(4), 2, 2)
    x2 = jet_var(CTX, 1, CTX.mp.mpf(4), 2, 2)
    f = jet_sub(jet_add(jet_mul(x1, x1), jet_mul(x2, x2)), jet_constant(CTX, 2, 2, 2))
    grad = derivative_tensor(f, 1)
    assert grad[0] == 8 and grad[1] == 8
    hess = derivative_tensor(f, 2)
    assert hess[0][0] == 2 and hess[1][1] == 2
    assert hess[0][1] == 0 and hess[1][0] == 0


def test_derivative_tensor_affine_and_mixed():
    x1 = jet_var(CTX, 0, CTX.mp.mpf(2), 2, 2)
    x2 = jet_var(CTX, 1, CTX.mp.mpf(3), 2, 2)
    affine = jet_sub(x1, x2)
    assert derivative_tensor(affine, 2) == [[0, 0], [0, 0]]
    prod = jet_mul(x1, x2)
    assert derivative_tensor(prod, 2) == [[0, 1], [1, 0]]


def test_derivative_tensor_order_checks():
    p = jet_constant(CTX, 1, 2, 2)
    assert derivative_tensor(p, 0) == 1
    with pytest.raises(ValueError):
        derivative_tensor(p, 3)


def test_ad_matches_central_differences():
    ctx = Context(200)
    mp = ctx.mp

    def f(x0, x1):
        return mp.exp(x0) * mp.sin(x1) + x0**3

    point = (mp.mpf("0.3"), mp.mpf("0.7"))
    x0 = jet_var(ctx, 0, point[0], 2, 1)
    x1 = jet_var(ctx, 1, point[1], 2, 1)
    jet = jet_add(
        jet_mul(jet_compose_univariate("exp", x0), jet_compose_univariate("sin", x1)),
        binary_power(x0, 3, jet_mul),
    )
    grad = derivative_tensor(jet, 1)
    h = ctx.pow10(-50)
    fd0 = (f(point[0] + h, point[1]) - f(point[0] - h, point[1])) / (2 * h)
    fd1 = (f(point[0], point[1] + h) - f(point[0], point[1] - h)) / (2 * h)
    assert abs(grad[0] - fd0) < ctx.pow10(-95)
    assert abs(grad[1] - fd1) < ctx.pow10(-95)


def test_truncated_and_homogeneous():
    x = jet_var(CTX, 0, CTX.mp.mpf(4), 1, 3)
    sq = jet_mul(x, x)
    t = truncated(sq, 1)
    assert t.max_degree == 1 and t.coeffs[(1,)] == 8
    h2 = sq.homogeneous_part(2)
    assert h2.coeffs[(2,)] == 1 and h2.coeffs[(0,)] == 0
    with pytest.raises(ShapeMismatchError):
        truncated(sq, 5)


@given(nvars=st.integers(1, 3), degree=st.integers(0, 3), data=st.data())
@settings(max_examples=30)
def test_every_producer_builds_the_full_index_table(nvars, degree, data):
    # TaylorPoly stores its coefficients as given, so each producer must
    # hand it every key of the index table, in the table's order
    a = data.draw(coeffs_strategy(nvars, degree, lo=1))
    b = data.draw(coeffs_strategy(nvars, degree))
    i = data.draw(st.integers(0, nvars - 1))
    e = parse_expression("exp(x) * x^2 - 2 / (x + 3) + sqrt(x)", {"x": 0})
    point = MPVector([CTX.mp.mpf(2)] * nvars)
    jets = [
        jet_constant(CTX, 3, nvars, degree),
        jet_var(CTX, i, 2, nvars, degree),
        jet_add(a, b),
        jet_sub(a, b),
        jet_neg(a),
        jet_mul(a, b),
        jet_compose_univariate("recip", a),
        binary_power(a, 3, jet_mul),
        *(jet_compose_univariate(fn, a) for fn in RESERVED_FUNCTIONS),
        jet_partial(a, i),
        truncated(a, data.draw(st.integers(0, degree))),
        a.homogeneous_part(data.draw(st.integers(0, degree))),
        eval_jet(e, point, degree, CTX),
    ]
    for j in jets:
        assert list(j.coeffs) == list(multi_indices(j.nvars, j.max_degree))
