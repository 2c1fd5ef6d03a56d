import pytest

from invseries import corpus
from invseries.corpus import BUILTIN_NAMES, builtin_problem
from invseries.numerics import Context, norm_inf
from invseries.scheme import evaluate_system

from helpers import reference_format_scalar


def test_names():
    assert BUILTIN_NAMES == ("affine-3", "incas-2var", "incas-3var", "scalar-square")


def test_unknown_name_rejected(ctx1000):
    with pytest.raises(ValueError):
        builtin_problem("nope", ctx1000)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_every_builtin_parses_and_has_verifiable_roots(name, ctx1000):
    p = builtin_problem(name, ctx1000)
    assert p.nvars == len(p.equations) == p.start.dim
    assert p.known_roots
    bound = ctx1000.pow10(-ctx1000.precision + 15)
    for root in p.known_roots:
        assert norm_inf(evaluate_system(p, root)) < bound


@pytest.mark.parametrize("precision", [100, 300])
def test_roots_track_requested_precision(precision):
    ctx = Context(precision)
    p = builtin_problem("incas-3var", ctx)
    bound = ctx.pow10(-precision + 15)
    for root in p.known_roots:
        assert norm_inf(evaluate_system(p, root)) < bound


def test_two_var_shape(ctx1000):
    p = builtin_problem("incas-2var", ctx1000)
    assert p.var_names == ("x1", "x2")
    assert p.start[0] == 4
    assert {tuple(float(v) for v in r) for r in p.known_roots} == {
        (1.0, 1.0),
        (-1.0, -1.0),
    }


@pytest.mark.parametrize("precision", [300, 1000])
def test_three_var_roots_are_the_reference_text_and_bits(precision):
    """Each root coordinate formatted on its own, as the Fraction reference
    does, gives the corpus text, and mpmath's parser its bits."""
    ctx = Context(precision)
    fine = Context(precision + 30)
    r = fine.mp.sqrt(fine.mp.mpf(3) / 35)
    roots = [(r, -3 * r, 5 * r), (-r, 3 * r, -5 * r)]
    texts = [[reference_format_scalar(v, precision + 25) for v in root] for root in roots]
    problem_text = corpus._three_var_text(ctx)
    for root_texts in texts:
        assert f"root: {' '.join(root_texts)}\n" in problem_text
    got = [[v._mpf_ for v in root] for root in builtin_problem("incas-3var", ctx).known_roots]
    assert got == [[ctx.mp.mpf(t)._mpf_ for t in root_texts] for root_texts in texts]
