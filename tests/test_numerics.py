import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, to_str

import invseries
from invseries.errors import (
    MalformedDecimalError,
    ShapeMismatchError,
    SingularMatrixError,
)
from invseries.expr import eval_jet, eval_partials, eval_scalar, parse_problem
from invseries.numerics import (
    ELEMENTARY_MEMO_SIZE,
    Context,
    MPMatrix,
    MPVector,
    decimal_mpf,
    format_scalar,
    lu_invert,
    norm_inf,
)

from helpers import (
    counting_context,
    identity,
    mat_mul,
    max_abs_diff,
    reference_format_scalar,
    reference_lu_invert,
)

CTX = Context(60)


def test_integer_literal_is_exact(ctx1000):
    assert ctx1000.const("4") == 4


def test_finite_binary_fraction_is_exact():
    ctx = Context(50)
    assert ctx.const("2.125") == ctx.mp.mpf(17) / 8


def test_tiny_exponent_literal(ctx1000):
    v = ctx1000.const("1e-909")
    assert v > 0
    assert v == ctx1000.pow10(-909)


def test_pow10_is_computed_once_per_exponent():
    ctx = Context(50)
    first = ctx.pow10(-48)
    assert first == ctx.mp.mpf(10) ** -48
    assert ctx.pow10(-48) is first


@pytest.mark.parametrize(
    "bad", ["", "abc", "1..2", "1e", "--3", "0x10", "1e+", "2.5.3", "nan", "inf"]
)
def test_malformed_literals_rejected(bad):
    with pytest.raises(MalformedDecimalError):
        CTX.const(bad)


def test_signed_and_exponent_forms_accepted():
    for ok in ["+1", "-2.5", ".5", "3.", "1e5", "1E-5", "-0.25e+3"]:
        CTX.const(ok)


def test_contexts_of_one_precision_share_mpmath_but_stay_distinct():
    a, b = Context(77), Context(77)
    assert a.mp is b.mp and a.mp.dps == 77
    assert a is not b
    assert Context(78).mp is not a.mp


_PRECISION_CHANGE = re.compile(
    r"\.(dps|prec)\s*[-+*/]?=(?!=)|\.(workdps|workprec|extradps|extraprec)\("
)


def test_no_source_changes_a_shared_precision():
    # Context.mp is shared by every Context of one precision; the only
    # precision it ever gets is set before the context is published
    src = Path(__file__).resolve().parents[1] / "src"
    changes = [
        (path.name, line.strip())
        for path in sorted(src.rglob("*.py"))
        for line in path.read_text().splitlines()
        if _PRECISION_CHANGE.search(line)
    ]
    assert changes == [("numerics.py", "mp.dps = precision")]


def test_const_is_parsed_once_per_context():
    ctx = Context(60)
    value = ctx.const("0.1")
    assert value == ctx.mp.mpf("0.1")
    assert ctx.const("0.1") is value
    assert Context(60).const("0.1") is not value


def test_precision_floor():
    with pytest.raises(ValueError):
        Context(15)
    Context(16)


@pytest.mark.parametrize("precision", [100.9, 100.0, "300", True], ids=repr)
def test_context_refuses_a_precision_that_is_not_an_int(precision):
    with pytest.raises(ValueError, match=re.escape(f"precision must be an int, got {precision!r}")):
        Context(precision)


@given(
    sign=st.sampled_from(["", "-"]),
    digits=st.text("0123456789", min_size=1, max_size=55),
    frac=st.text("0123456789", min_size=0, max_size=5),
    exponent=st.integers(-40, 40),
)
def test_decimal_round_trip(sign, digits, frac, exponent):
    """Printing with guard digits and re-parsing restores the binary value."""
    text = f"{sign}{digits}.{frac}e{exponent}"
    v = CTX.const(text)
    if v == 0:
        assert format_scalar(v, 10) == "0"
        return
    reparsed = CTX.const(format_scalar(v, CTX.precision + 10))
    assert reparsed == v


@given(
    digits=st.text("123456789", min_size=1, max_size=20),
)
def test_decimal_reprint_last_place(digits):
    """A short literal reprints to the same digits up to last-place truncation."""
    v = CTX.const(f"0.{digits}")
    printed = format_scalar(v, len(digits))
    w = CTX.const(printed)
    ulp = CTX.const(f"1e-{len(digits)}")
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


FORMAT_CONTEXTS = {p: Context(p) for p in (16, 60, 300, 1000, 1100)}


@st.composite
def format_values(draw):
    """A float of one of FORMAT_CONTEXTS: a random mantissa and exponent, an
    exact power of 2 or of 10, or the float half an ulp below 10^j.  Half
    the random and power-of-10 draws reach binary exponents beyond
    ``format_scalar``'s switch to bounds, 8·(bits + 4·sig_digits + 64)."""
    ctx = FORMAT_CONTEXTS[draw(st.sampled_from(sorted(FORMAT_CONTEXTS)))]
    kind = draw(st.sampled_from(["random", "pow2", "pow10", "below-pow10"]))
    far = draw(st.booleans())
    if kind == "random":
        man = draw(st.integers(1, 2 ** ctx.mp.prec - 1))
        exp = draw(st.integers(-200_000, 200_000) if far else st.integers(-4000, 4000))
        raw = from_man_exp(man, exp, ctx.mp.prec)
    elif kind == "pow2":
        raw = from_man_exp(1, draw(st.integers(-3000, 3000)))
    else:
        j = draw(st.integers(-60_000, 60_000) if far else st.integers(-1000, 1000))
        _, man, exp, _ = ctx.pow10(j)._mpf_
        raw = from_man_exp(man, exp) if kind == "pow10" else from_man_exp(2 * man - 1, exp - 1)
    sign = draw(st.sampled_from([1, -1]))
    return sign * ctx.mp.make_mpf(raw)


@given(
    x=format_values(),
    sig_digits=st.integers(1, 1100),
    strip_zeros=st.booleans(),
)
@settings(max_examples=150)
def test_format_matches_the_fraction_reference(x, sig_digits, strip_zeros):
    """The integer rendering is the exact rational one, string for string."""
    assert format_scalar(x, sig_digits, strip_zeros) == reference_format_scalar(
        x, sig_digits, strip_zeros
    )


def test_format_renders_a_huge_exponent_quickly():
    # the exact integers of 1e±100000000 have about 3.3e8 bits: rendering them
    # took minutes, bounding the digits takes well under a millisecond
    code = (
        "from invseries.numerics import Context, format_scalar\n"
        "ctx = Context(50)\n"
        "for text in ('1e100000000', '1e-100000000'):\n"
        "    print(format_scalar(ctx.const(text), 10))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(invseries.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
    )
    # both literals parse to a float just below 10^±100000000
    assert done.stdout.split() == ["9.999999999e99999999", "9.999999999e-100000001"]


def test_format_renders_huge_binary_exponents_quickly():
    """2^(±10^20), 2^(±10^22) and 2^(±10^24), against mpmath's digits,
    truncated.  A float estimate of the decimal exponent is off by about
    10^6 here, which sent the rendering into exact integers of 10^22 bits
    (an OverflowError, or minutes of work)."""
    exponents = [sign * 10**k for k in (20, 22, 24) for sign in (1, -1)]
    code = (
        "from mpmath.libmp import from_man_exp\n"
        "from invseries.numerics import Context, format_scalar\n"
        "ctx = Context(60)\n"
        f"for e in {exponents}:\n"
        "    print(format_scalar(ctx.mp.make_mpf(from_man_exp(1, e)), 50))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(invseries.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
    )
    expected = []
    for e in exponents:
        mantissa, exp10 = to_str(from_man_exp(1, e), 70).split("e")
        digits = mantissa.replace(".", "")[:50]
        expected.append(f"{digits[0]}.{digits[1:]}e{int(exp10)}")
    assert (done.stdout.split(), done.stderr) == (expected, "")


def test_format_refuses_a_non_finite_value():
    for bad in (CTX.mp.inf, -CTX.mp.inf, CTX.mp.nan):
        with pytest.raises(ValueError, match="non-finite"):
            format_scalar(bad, 10)


PARSE_CONTEXTS = {p: Context(p) for p in (16, 60, 300, 1030)}


@given(
    precision=st.sampled_from(sorted(PARSE_CONTEXTS)),
    sign=st.sampled_from(["", "-", "+"]),
    whole=st.text("0123456789", max_size=600),
    frac=st.one_of(st.none(), st.text("0123456789", max_size=500)),
    exponent=st.one_of(st.none(), st.integers(-1500, 1500)),
    marker=st.sampled_from(["e", "E"]),
)
@example(precision=300, sign="", whole="1", frac=None, exponent=400, marker="e")
@example(precision=300, sign="", whole="1", frac=None, exponent=401, marker="e")
@example(precision=300, sign="-", whole="3", frac="", exponent=-400, marker="e")
@example(precision=300, sign="", whole="3", frac="70", exponent=-400, marker="e")
@example(precision=300, sign="", whole="", frac="25", exponent=-399, marker="E")
@example(precision=300, sign="", whole="1", frac="0625", exponent=None, marker="e")
@example(precision=60, sign="-", whole="0", frac="4375", exponent=None, marker="e")
@example(precision=300, sign="", whole="6", frac="25", exponent=-2, marker="e")
@example(precision=300, sign="", whole="1", frac="5", exponent=-3, marker="e")
# 5 divides the mantissa, and the quotient is wider than 16 digits' 56 bits
@example(precision=16, sign="", whole="9" * 30, frac="5", exponent=None, marker="e")
def test_parse_has_mpmath_bits(precision, sign, whole, frac, exponent, marker):
    """Every literal mpmath reads parses to ``ctx.mp.mpf(text)``'s bits, on
    both sides of mpmath's ±400 exponent branch."""
    if not (whole + (frac or "")).strip("0"):
        whole = "7"  # mpmath cannot read a literal with no digit left of zeros
    text = sign + whole + ("" if frac is None else "." + frac)
    if exponent is not None:
        text += f"{marker}{exponent:+d}" if exponent % 2 else f"{marker}{exponent}"
    ctx = PARSE_CONTEXTS[precision]
    assert ctx.const(text)._mpf_ == ctx.mp.mpf(text)._mpf_


@pytest.mark.parametrize("text", [".0", "-.000e5", "0.", "+.0e-7", "-0"])
def test_parse_reads_a_zero_with_no_integer_digits(text):
    # mpmath's own parser fails on these with int('')
    assert CTX.const(text)._mpf_ == CTX.zero._mpf_


def test_parse_reads_a_literal_beyond_the_int_digit_limit():
    ctx = Context(5000)
    text = "0." + "3" * 5000
    third = ctx.one / 3
    assert abs(ctx.const(text) - third) <= ctx.pow10(-5000)
    assert ctx.const(text + "e+0") == ctx.const(text)


def test_const_goes_through_the_decimal_parser():
    ctx = Context(60)
    assert ctx.const(".0") == 0
    value = ctx.const("1e-450")
    assert value._mpf_ == decimal_mpf("1e-450", ctx.mp.prec)
    assert ctx.const("1e-450") is value


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
    with pytest.raises(SingularMatrixError, match=re.escape("10^-500 ")):
        lu_invert(m, ctx1000)


def test_singular_message_names_the_floor_at_odd_precision():
    ctx = Context(101)
    m = MPMatrix([[ctx.one, ctx.one], [ctx.one, ctx.one]])
    with pytest.raises(SingularMatrixError, match=re.escape("below 10^-51 of")):
        lu_invert(m, ctx)


def test_the_pivot_floor_at_odd_precision_is_an_integer_power():
    # at 101 digits the floor is 10^-51, not 10^-50.5: a pivot of 3e-51
    # clears it, one of 5e-52 does not
    ctx = Context(101)
    one = ctx.one
    m = MPMatrix([[one, one], [one, one + ctx.const("3e-51")]])
    inv = lu_invert(m, ctx)
    assert max_abs_diff(mat_mul(m, inv), identity(ctx, 2)) < ctx.pow10(-40)
    m = MPMatrix([[one, one], [one, one + ctx.const("5e-52")]])
    with pytest.raises(SingularMatrixError, match=re.escape("below 10^-51 of")):
        lu_invert(m, ctx)


@pytest.mark.parametrize("precision, big", [(100, "1e60"), (1000, "1e510")])
def test_lu_invert_skips_a_pivot_tiny_for_its_row(precision, big):
    # column 0 is largest in row 0, but 2 is below tiny * 1e60 there; row 1 pivots
    ctx = Context(precision)
    mp = ctx.mp
    m = MPMatrix([[mp.mpf(2), mp.mpf(big)], [ctx.one, ctx.one]])
    inv = lu_invert(m, ctx)
    # adjugate/determinant oracle, checked entry by entry relative to its size
    det = 2 - mp.mpf(big)
    expected = [[1 / det, -mp.mpf(big) / det], [-1 / det, 2 / det]]
    for i in range(2):
        for j in range(2):
            tol = abs(expected[i][j]) * ctx.pow10(-precision + 10)
            assert abs(inv.at(i, j) - expected[i][j]) <= tol


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


def _inverse_bits(m, ctx, invert):
    try:
        inv = invert(m, ctx)
    except SingularMatrixError:
        return "singular"
    return [[x._mpf_ for x in row] for row in inv.entries]


@st.composite
def lu_inputs(draw):
    """Square matrices of full-mantissa entries and exact zeros, rows scaled
    by up to 10^±300, some made singular by a zero column or a row that is
    a power-of-two multiple of another."""
    n = draw(st.integers(1, 8))
    ctx = Context(draw(st.integers(16, 1000)))
    mp = ctx.mp
    entry = st.one_of(
        st.just((0, 1)), st.tuples(st.integers(-999, 999), st.integers(1, 999))
    )
    pairs = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    scales = draw(st.lists(st.sampled_from([-300, -1, 0, 1, 300]), min_size=n, max_size=n))
    rows = [
        [mp.mpf(num) / den * ctx.pow10(e) for num, den in row]
        for row, e in zip(pairs, scales)
    ]
    defect = draw(st.sampled_from(["none", "none", "zero column", "dependent row"]))
    if defect == "zero column":
        col = draw(st.integers(0, n - 1))
        for row in rows:
            row[col] = ctx.zero
    elif defect == "dependent row" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        rows[i] = [x * 2 ** draw(st.integers(-3, 3)) for x in rows[j]]
    return MPMatrix(rows), ctx


def _sevenths(rows):
    return MPMatrix([[CTX.mp.mpf(x) / 7 for x in row] for row in rows]), CTX


@given(lu_inputs())
@example(_sevenths([[0, 1], [1, 0]]))
@example(_sevenths([[1, 2, 3], [4, 5, 6], [7, 8, 10]]))
@settings(max_examples=120)
def test_lu_invert_is_bitwise_the_plain_lu(inputs):
    m, ctx = inputs
    assert _inverse_bits(m, ctx, lu_invert) == _inverse_bits(m, ctx, reference_lu_invert)


def _elementary_arguments(mp, kind, sign):
    pi = +mp.pi
    arg = {
        "zero": mp.zero,
        "tiny": mp.mpf(3) / 7 * mp.mpf(10) ** -300,
        "huge": mp.mpf(10) ** 300 / 7,
        "moderate": mp.mpf(22) / 7,
        "near pi": pi,
        "near a multiple of pi": 355 * pi,
        "near pi/2": pi / 2,
    }[kind]
    return -arg if sign else arg


@given(
    precision=st.integers(16, 1000),
    kind=st.sampled_from(
        ["zero", "tiny", "huge", "moderate", "near pi", "near a multiple of pi", "near pi/2"]
    ),
    sign=st.booleans(),
)
@settings(max_examples=100)
def test_elementary_memo_is_bitwise_the_direct_call(precision, kind, sign):
    ctx = Context(precision)
    mp = ctx.mp
    for _ in range(2):  # computed, then read back
        # every function at one argument in one memo: the key tells them apart
        for fn in ("exp", "log", "sqrt", "sin", "cos"):
            x = _elementary_arguments(mp, kind, sign and fn not in ("log", "sqrt"))
            if fn == "exp" and kind == "huge":
                x = mp.mpf(10) ** 5 / 7 * (-1 if sign else 1)
            if fn in ("sin", "cos"):
                cos_x, sin_x = ctx.elementary("cos_sin", x)
                got = sin_x if fn == "sin" else cos_x
            else:
                got = ctx.elementary(fn, x)
            assert got._mpf_ == getattr(mp, fn)(x)._mpf_


def test_repeated_argument_makes_no_new_call():
    ctx = counting_context(300)
    problem = parse_problem(
        "vars: x y\neq: sin(x) + cos(x) * exp(y)\neq: log(y + 2) - sqrt(x + 3) + sin(x)\n"
        "start: 0.5 0.25\n",
        ctx,
    )
    point = problem.start
    for _ in range(2):
        for eq in problem.equations:
            eval_scalar(eq, point, ctx)
            eval_partials(eq, point, ctx)
            eval_jet(eq, point, 3, ctx)
    names = [name for name, _ in ctx.mp.calls]
    assert sorted(names) == ["cos_sin", "exp", "log", "sqrt"]
    assert len(set(ctx.mp.calls)) == len(ctx.mp.calls)


def test_elementary_memo_stays_within_its_bound():
    ctx = counting_context(16)
    mp = ctx.mp.mp
    args = [mp.mpf(i) / 64 for i in range(ELEMENTARY_MEMO_SIZE + 40)]
    for x in args:
        assert ctx.elementary("exp", x)._mpf_ == mp.exp(x)._mpf_
        assert len(ctx._elementary) <= ELEMENTARY_MEMO_SIZE
    assert len(ctx.mp.calls) == len(args)


def test_contexts_of_one_precision_share_no_memo_entries():
    a, b = Context(50), counting_context(50)
    assert a.mp is b.mp.mp
    x = a.mp.mpf(1) / 3
    a.elementary("exp", x)
    b.elementary("exp", x)
    b.elementary("exp", x)
    assert b.mp.calls == [("exp", x._mpf_)]
    assert a._elementary is not b._elementary


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
    lo_in_hi = hi_ctx.const(format_scalar(lo, p + 10))
    assert abs(lo_in_hi - hi) < hi_ctx.pow10(-(p - 5))


def test_vector_shape_checks(ctx1000):
    v = MPVector([ctx1000.one, ctx1000.zero])
    w = MPVector([ctx1000.one])
    with pytest.raises(ShapeMismatchError):
        v.sub(w)
    with pytest.raises(ShapeMismatchError):
        MPVector([])
