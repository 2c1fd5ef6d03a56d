import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invseries.errors import (
    MalformedDecimalError,
    ShapeMismatchError,
    SingularMatrixError,
)
from invseries.numerics import (
    Context,
    MPMatrix,
    MPVector,
    format_scalar,
    lu_invert,
    lu_solve,
    norm_inf,
    scalar_from_decimal,
)

from helpers import identity, mat_mul, mat_vec, max_abs_diff

CTX = Context(60)


def test_integer_literal_is_exact(ctx1000):
    assert scalar_from_decimal("4", ctx1000) == 4


def test_finite_binary_fraction_is_exact():
    ctx = Context(50)
    assert scalar_from_decimal("2.125", ctx) == ctx.mp.mpf(17) / 8


def test_tiny_exponent_literal(ctx1000):
    v = scalar_from_decimal("1e-909", ctx1000)
    assert v > 0
    assert v == ctx1000.pow10(-909)


@pytest.mark.parametrize(
    "bad", ["", "abc", "1..2", "1e", "--3", "0x10", "1e+", "2.5.3", "nan", "inf"]
)
def test_malformed_literals_rejected(bad):
    with pytest.raises(MalformedDecimalError):
        scalar_from_decimal(bad, CTX)


def test_signed_and_exponent_forms_accepted():
    for ok in ["+1", "-2.5", ".5", "3.", "1e5", "1E-5", "-0.25e+3"]:
        scalar_from_decimal(ok, CTX)


def test_precision_floor():
    with pytest.raises(ValueError):
        Context(15)
    Context(16)


@given(
    sign=st.sampled_from(["", "-"]),
    digits=st.text("0123456789", min_size=1, max_size=55),
    frac=st.text("0123456789", min_size=0, max_size=5),
    exponent=st.integers(-40, 40),
)
def test_decimal_round_trip(sign, digits, frac, exponent):
    """Printing with guard digits and re-parsing restores the binary value."""
    text = f"{sign}{digits}.{frac}e{exponent}"
    v = scalar_from_decimal(text, CTX)
    if v == 0:
        assert format_scalar(v, 10) == "0"
        return
    reparsed = scalar_from_decimal(format_scalar(v, CTX.precision + 10), CTX)
    assert reparsed == v


@given(
    digits=st.text("123456789", min_size=1, max_size=20),
)
def test_decimal_reprint_last_place(digits):
    """A short literal reprints to the same digits up to last-place truncation."""
    v = scalar_from_decimal(f"0.{digits}", CTX)
    printed = format_scalar(v, len(digits))
    w = scalar_from_decimal(printed, CTX)
    ulp = scalar_from_decimal(f"1e-{len(digits)}", CTX)
    assert abs(w - v) <= ulp * (1 + CTX.pow10(-30))


def test_format_truncates_not_rounds():
    ctx = Context(60)
    v = ctx.mp.mpf(225) / 272  # 0.8272058823529...
    assert format_scalar(v, 10) == "8.272058823e-1"


def test_format_strip_zeros_and_zero():
    ctx = Context(60)
    assert format_scalar(ctx.mp.mpf(4), 50, strip_zeros=True) == "4e0"
    assert format_scalar(ctx.mp.mpf("2.125"), 50, strip_zeros=True) == "2.125e0"
    assert format_scalar(ctx.zero, 10) == "0"
    assert format_scalar(-ctx.mp.mpf("1.875"), 10) == "-1.875000000e0"


def test_lu_invert_identity(ctx1000):
    ident = identity(ctx1000, 2)
    inv = lu_invert(ident, ctx1000)
    assert all(inv.at(i, j) == ident.at(i, j) for i in range(2) for j in range(2))


def test_lu_invert_two_by_two(ctx1000):
    mp = ctx1000.mp
    m = MPMatrix([[mp.mpf(1), mp.mpf(-1)], [mp.mpf(8), mp.mpf(8)]])
    inv = lu_invert(m, ctx1000)
    # adjugate/determinant oracle: (1/16)*[[8, 1], [-8, 1]]
    expected = [[mp.mpf(8) / 16, mp.mpf(1) / 16], [mp.mpf(-8) / 16, mp.mpf(1) / 16]]
    for i in range(2):
        for j in range(2):
            assert abs(inv.at(i, j) - expected[i][j]) < ctx1000.pow10(-990)


def test_lu_invert_singular(ctx1000):
    mp = ctx1000.mp
    m = MPMatrix([[mp.mpf(1), mp.mpf(-1)], [mp.zero, mp.zero]])
    with pytest.raises(SingularMatrixError):
        lu_invert(m, ctx1000)


def test_lu_invert_needs_square(ctx1000):
    m = MPMatrix([[ctx1000.one, ctx1000.zero]])
    with pytest.raises(ShapeMismatchError):
        lu_invert(m, ctx1000)


@given(
    k=st.integers(2, 6),
    data=st.data(),
)
@settings(max_examples=40)
def test_lu_invert_residual_well_conditioned(k, data):
    ctx = Context(120)
    mp = ctx.mp
    entries = data.draw(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=k, max_size=k),
            min_size=k,
            max_size=k,
        )
    )
    # diagonal dominance keeps the condition number harmless
    m = MPMatrix(
        [
            [mp.mpf(entries[i][j]) / 4 + (10 if i == j else 0) for j in range(k)]
            for i in range(k)
        ]
    )
    inv = lu_invert(m, ctx)
    residual = max_abs_diff(mat_mul(m, inv), identity(ctx, k))
    assert residual < ctx.pow10(-ctx.precision + 10)


def test_lu_solve_matches_invert(ctx1000):
    mp = ctx1000.mp
    m = MPMatrix([[mp.mpf(3), mp.mpf(1)], [mp.mpf(1), mp.mpf(2)]])
    b = MPVector([mp.mpf(5), mp.mpf(5)])
    x = lu_solve(m, b, ctx1000)
    x2 = mat_vec(lu_invert(m, ctx1000), b)
    assert norm_inf(x.sub(x2)) < ctx1000.pow10(-990)


def test_norm_inf_examples(ctx1000):
    mp = ctx1000.mp
    assert norm_inf(MPVector([mp.mpf("1.875"), mp.mpf("1.875")])) == mp.mpf("1.875")
    assert norm_inf(MPVector([mp.zero, mp.zero])) == 0
    assert norm_inf(MPVector([mp.mpf(-3), mp.mpf(2)])) == 3


def test_precision_doubling_consistency():
    def chain(ctx):
        mp = ctx.mp
        a = mp.sqrt(mp.mpf(2))
        b = mp.exp(mp.mpf(1)) / 3
        return a * b + mp.mpf(1) / 7 - mp.log(mp.mpf(10))

    p = 100
    hi_ctx = Context(2 * p)
    lo, hi = chain(Context(p)), chain(hi_ctx)
    lo_in_hi = scalar_from_decimal(format_scalar(lo, p + 10), hi_ctx)
    assert abs(lo_in_hi - hi) < hi_ctx.pow10(-(p - 5))


def test_vector_shape_checks(ctx1000):
    v = MPVector([ctx1000.one, ctx1000.zero])
    w = MPVector([ctx1000.one])
    with pytest.raises(ShapeMismatchError):
        v.sub(w)
    with pytest.raises(ShapeMismatchError):
        MPVector([])
