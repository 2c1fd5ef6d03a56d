import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invseries.errors import (
    DivisionByZeroJetError,
    DomainError,
    ShapeMismatchError,
)
from invseries.numerics import Context
from invseries.taylor import (
    TaylorPoly,
    derivative_tensor,
    jet_add,
    jet_compose_univariate,
    jet_constant,
    jet_mul,
    jet_partial,
    jet_pow_int,
    jet_recip,
    jet_sub,
    jet_var,
    multi_indices,
)

from helpers import max_coeff_diff

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
    assert jet_recip(jet_constant(CTX, 2, 1, 0)).value() == CTX.mp.mpf("0.5")


def test_recip_geometric_series():
    one_plus_h = jet_var(CTX, 0, CTX.one, 1, 3)
    r = jet_recip(one_plus_h)
    for k, expected in enumerate([1, -1, 1, -1]):
        assert abs(r.coeffs[(k,)] - expected) < TOL


def test_recip_zero_constant_term():
    h = jet_var(CTX, 0, CTX.zero, 1, 3)
    with pytest.raises(DivisionByZeroJetError):
        jet_recip(h)


@given(a=polys_2_3, const=st.integers(1, 9))
@settings(max_examples=40)
def test_recip_defining_property(a, const):
    shifted = jet_add(a, jet_constant(CTX, 10 * const, 2, 3))
    prod = jet_mul(shifted, jet_recip(shifted))
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
    cube = jet_pow_int(x, 3)
    assert max_coeff_diff(cube, jet_mul(jet_mul(x, x), x)) < TOL
    assert jet_pow_int(x, 0).value() == 1
    with pytest.raises(DomainError):
        jet_pow_int(x, -1)


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
        jet_mul(jet_partial(a, i), b.truncated(2)),
        jet_mul(a.truncated(2), jet_partial(b, i)),
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
        jet_pow_int(x0, 3),
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
    t = sq.truncated(1)
    assert t.max_degree == 1 and t.coeffs[(1,)] == 8
    h2 = sq.homogeneous_part(2)
    assert h2.coeffs[(2,)] == 1 and h2.coeffs[(0,)] == 0
    with pytest.raises(ShapeMismatchError):
        sq.truncated(5)
