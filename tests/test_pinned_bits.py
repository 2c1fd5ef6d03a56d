"""Pinned bits: sha256 digests of every ``TraceRow`` of fixed solves.

Each digest covers the exact ``_mpf_`` tuples of every iterate, step,
step norm, residual norm and root distance, and the final status.  A row
holds no step, number or root distance, so the digest derives them: the
step from consecutive iterates, ``rows[n].x.sub(rows[n - 1].x)`` (the
vector whose norm ``solve`` stores), n from the row's position, and the
distance to the row's own nearest known root as the tables render it.
The digests were recorded from the schoolbook jet kernel, so a change
that drops a nonzero term from a sum, or reorders one, fails here even
when the iterates still agree to many digits.  ``AST_DIGESTS`` pins the
trees these problems parse to.
"""

import hashlib

import pytest

from invseries.corpus import builtin_problem
from invseries.expr import parse_problem
from invseries.numerics import Context, norm_inf
from invseries.solver import SolveConfig, solve

# the first system of perfbench's synthetic_system(random.Random(1)): eight
# variables, affine parts, one product, one sin and one exp per equation
SYNTHETIC_8 = """\
vars: x1 x2 x3 x4 x5 x6 x7 x8
eq: 10.7*(x1 + 1) + 0.5*(x2 - 0.75) - 0.5*(x3 - 1.5) + 0.3*(x4 + 1.25) - 0.1*(x5 + 0.5) - 0.2*(x6 + 1.0625) + 0.5*(x7 - 0.4375) - 0.4*(x8 - 1.5) - 1*(x6 + 1.0625)*(x1 + 1) - 1*sin(x1 + 1) + 0.3*(exp(x4 + 1.25) - 1)
eq: 0.2*(x1 + 1) + 8.1*(x2 - 0.75) + 0.4*(x3 - 1.5) - 0.2*(x4 + 1.25) + 0.3*(x5 + 0.5) + 0.3*(x6 + 1.0625) + 0.4*(x7 - 0.4375) - 0.2*(x8 - 1.5) - 0.3*(x6 + 1.0625)*(x2 - 0.75) + 0.5*sin(x5 + 0.5) - 1*(exp(x7 - 0.4375) - 1)
eq: 0.4*(x1 + 1) - 0.4*(x2 - 0.75) + 9.1*(x3 - 1.5) - 0.1*(x4 + 1.25) - 0.4*(x5 + 0.5) + 0.1*(x6 + 1.0625) + 0.4*(x7 - 0.4375) + 0.2*(x8 - 1.5) - 0.1*(x4 + 1.25)*(x3 - 1.5) + 0.9*sin(x8 - 1.5) + 0.7*(exp(x7 - 0.4375) - 1)
eq: 0.5*(x1 + 1) - 0.5*(x2 - 0.75) + 0.3*(x3 - 1.5) + 9.5*(x4 + 1.25) + 0.2*(x5 + 0.5) + 0.2*(x6 + 1.0625) - 0.3*(x7 - 0.4375) + 0.1*(x8 - 1.5) + 0.5*(x6 + 1.0625)*(x1 + 1) + 0.7*sin(x2 - 0.75) - 0.5*(exp(x7 - 0.4375) - 1)
eq: 0.1*(x1 + 1) + 0.3*(x2 - 0.75) - 0.5*(x3 - 1.5) + 0.3*(x4 + 1.25) + 8.2*(x5 + 0.5) - 0.1*(x6 + 1.0625) + 0.5*(x7 - 0.4375) + 0.5*(x8 - 1.5) - 0.5*(x7 - 0.4375)*(x6 + 1.0625) - 0.5*sin(x4 + 1.25) - 1*(exp(x4 + 1.25) - 1)
eq: 0.4*(x1 + 1) + 0.4*(x2 - 0.75) - 0.2*(x3 - 1.5) + 0.2*(x4 + 1.25) + 0.4*(x5 + 0.5) + 10.2*(x6 + 1.0625) + 0.5*(x7 - 0.4375) + 0.1*(x8 - 1.5) + 0.8*(x8 - 1.5)*(x3 - 1.5) + 1*sin(x1 + 1) + 0.3*(exp(x3 - 1.5) - 1)
eq: 0.4*(x1 + 1) + 0.4*(x2 - 0.75) - 0.2*(x3 - 1.5) + 0.2*(x4 + 1.25) - 0.5*(x5 + 0.5) + 0.3*(x6 + 1.0625) + 10.3*(x7 - 0.4375) + 0.5*(x8 - 1.5) + 0.4*(x4 + 1.25)*(x5 + 0.5) + 0.6*sin(x6 + 1.0625) + 0.4*(exp(x6 + 1.0625) - 1)
eq: - 0.5*(x1 + 1) + 0.4*(x2 - 0.75) + 0.4*(x3 - 1.5) + 0.5*(x4 + 1.25) + 0.5*(x5 + 0.5) + 0.1*(x6 + 1.0625) + 0.3*(x7 - 0.4375) + 11.8*(x8 - 1.5) - 0.3*(x1 + 1)*(x7 - 0.4375) - 0.5*sin(x3 - 1.5) - 0.8*(exp(x5 + 0.5) - 1)
start: -0.5625 1.25 1.8125 -1.375 -0.8125 -0.5625 -0.0625 1.8125
root: -1 0.75 1.5 -1.25 -0.5 -1.0625 0.4375 1.5
"""

# every elementary function, the same sin/cos argument twice across
# equations, a non-constant and a constant divisor, a constant factor on
# either side, and a cube
MIXED_3 = """\
vars: x y z
eq: log(x + 2) + sin(y) - 0.5*z^3 - 1
eq: sqrt(y + 3) - cos(x)*1.5 + z/(x + 4) - 0.25
eq: exp(z) - 2*x + y/4 + cos(y) - 1.5
start: 0.25 0.5 0.25
"""

DIGESTS = {
    ("incas-3var", 1000, 2): "cd85c5176325dee42bf09cc40a4a44cf17417f5533a72e1225ca2bfd84ed829c",
    ("incas-3var", 1000, 3): "680f15b14ec1b7259cadb1537a0b670ac912a7c967eb46ab9f04f3ac840c79c9",
    ("incas-3var", 1000, 4): "c6746e5fc172eab66e682f0739364ba866dab3a533a6a4f0c9040b0dc037ea49",
    ("incas-3var", 1000, 5): "f5f6db3e1eb651364594b488be5bc1621fef32dc6364a17bd04f76c44f85cb5a",
    ("incas-3var", 1000, 6): "25ec9971abf0da787f29f89691f76a34148fe3991d35de58760ebb5dffdddeb9",
    ("mixed-3", 300, 2): "acc70cca1a8bc25d4bf7cad3dbd252683094e9a3528fcd03918576706e98092a",
    ("mixed-3", 300, 3): "462ac4cbe47baab955b98935b0de1553e630be72007b682c9be038f406ed8ab7",
    ("mixed-3", 300, 4): "32818b6ff9f90f6af3d4197efec8b0c2e8b17c429f24ad7aa6f7558d81f4eb84",
    ("mixed-3", 300, 5): "728de4f26c539ecd1fca4254eff8a99bf76defaeeb3bb6b91086254b7c14a8d9",
    ("synthetic-8", 300, 2): "b99ccb4929144189dd3fd4d800ed2db3553f090ece56dd482c81025f6d763c42",
    ("synthetic-8", 300, 3): "37e75d398fa5d76273559bad2cc2991ed0306ca766aa9fcee30782c301a36d04",
    ("synthetic-8", 300, 4): "3690d24905a75007f9098c2fe6ede657f1f2a2a917f6dfed4ab60d3d80609981",
    ("synthetic-8", 300, 5): "1c2863b0d80405f2b3777204bc04a3c04c0c161deb6eaaf6d143cc4a48f9dbc8",
}


# sha256 of repr(problem.equations), recorded when the nodes were frozen
# dataclasses and the parser climbed precedence: the trees are pinned node
# for node, field order and repr text included
AST_DIGESTS = {
    "affine-3": "6653414f54961905a89ee2dfb9926bc842585d854eaaf5483ec1d3647e3f85be",
    "incas-2var": "2f494a74cc0213b59a261fb7662346269d15b2e85409b743a62a590b08bb5cd4",
    "incas-3var": "9a41d5dbe56875c492729258441b73fa642211ce2ca0c9f0a9541fb799618b54",
    "mixed-3": "e75bdaed015370932d1d0de5fabc739d320dc422693e22f03549f6561175a2f8",
    "scalar-square": "ddb59b6a845821ec8febb5066178a91e582d0a841b0e9b27aa6741d7fc4c8fa0",
    "synthetic-8": "e7a7751d4d23dff0a4f875984a57e0d19c79ee971d25b1c4ed97dc1128acc576",
}


def _bits(value):
    if value is None:
        return None
    if hasattr(value, "_mpf_"):
        return tuple(int(part) for part in value._mpf_)
    return tuple(_bits(v) for v in value)


def trace_digest(trace) -> str:
    h = hashlib.sha256(trace.status.value.encode())
    roots = trace.problem.known_roots
    prev = None
    for n, row in enumerate(trace.rows):
        step = None if prev is None else row.x.sub(prev.x)
        error = min(norm_inf(row.x.sub(root)) for root in roots) if roots else None
        fields = (row.x, step, row.step_norm, row.residual_norm, error)
        h.update(repr((n, *map(_bits, fields))).encode())
        prev = row
    return h.hexdigest()


def _problem(name, ctx):
    if name == "synthetic-8":
        return parse_problem(SYNTHETIC_8, ctx)
    if name == "mixed-3":
        return parse_problem(MIXED_3, ctx)
    return builtin_problem(name, ctx)


@pytest.mark.parametrize("name, precision, order", sorted(DIGESTS))
def test_trace_bits_are_pinned(name, precision, order):
    ctx = Context(precision)
    trace = solve(_problem(name, ctx), SolveConfig(order, precision))
    assert trace_digest(trace) == DIGESTS[(name, precision, order)]


@pytest.mark.parametrize("name", sorted(AST_DIGESTS))
def test_parsed_trees_are_pinned(name):
    equations = _problem(name, Context(60)).equations
    assert hashlib.sha256(repr(equations).encode()).hexdigest() == AST_DIGESTS[name]
