"""The benchmark's workloads: inputs, job lists and correctness checks.

Each workload is built in three steps.  ``Workload(name, seed, ...)``
draws its inputs from the seed (untimed); ``Workload.setup`` builds the contexts
and problems through the program's own parsers (timed as ``setup_s``);
each job's ``run`` does the measured work and its ``check`` judges the
output afterwards, outside the timed region, without trusting the
solver's own verdict.

The program is always reached through module attributes
(``solver.solve``, ``corpus.builtin_problem`` ...), never through names
bound here, so the tracer's wrappers see the benchmark's calls too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from mpmath.ctx_mp import MPContext

from invseries import cli, corpus, expr, numerics, scheme, solver

WORKLOADS = ("high-order", "wide-synthetic", "paper-repro")

# A converged solve must agree with the reference root, and have a
# residual, to within 10^-(precision - GUARD_DIGITS).
GUARD_DIGITS = 50

HIGH_ORDER_PRECISION = 1000
HIGH_ORDER_JOBS = (("incas-2var", 8), ("incas-3var", 5), ("incas-3var", 6))

WIDE_PRECISION = 300
WIDE_NVARS = 8
WIDE_SYSTEMS = 4
WIDE_ORDERS = (2, 3)

PAPER_PRECISION = 1000
PAPER_ORDERS = (2, 3, 4, 5)
PAPER_ORDER_CHECKS = ("incas-2var", "incas-3var")

# sha256 of `invseries tables --precision 1000`, recorded at the commit
# that introduced this benchmark.  The tables are the paper's deliverable
# and must stay byte-identical.
TABLE_DIGESTS = {
    "table_order2.md": "ea461dd3cef434ddda05f4e8036248d495bdb71ccb0e2b1192d7b672aa440040",
    "table_order3.md": "69bf4677b656faef09c0215ca351aa9ccdbb1ce0be92e8671a1529789cd3ce56",
    "table_order4.md": "228008294f3d6eff11e0844f9a1a7e9ce3096cdd792297e3bdc7f8f92f2e79a9",
    "table_order5.md": "d1e6b106aa6b8ee31a70f8cac3ca769e893e62bf379f9e6361384516829334be",
}


@dataclass(frozen=True)
class Outcome:
    """Verdict of one job: ok, correct digits (None if not a solve), why."""

    ok: bool
    digits: float | None
    detail: str


# --- reference roots ---------------------------------------------------------


def _reference_context(precision: int) -> MPContext:
    mp = MPContext()
    mp.dps = precision + 30
    return mp


def builtin_roots(name: str, precision: int):
    """Roots of the builtins, derived here rather than read from the corpus."""
    mp = _reference_context(precision)
    if name == "incas-2var":
        one = mp.mpf(1)
        return mp, [(one, one), (-one, -one)]
    if name == "incas-3var":
        r = mp.sqrt(mp.mpf(3) / 35)
        return mp, [(r, -3 * r, 5 * r), (-r, 3 * r, -5 * r)]
    raise ValueError(f"no reference root for {name!r}")


def correct_digits(mp: MPContext, x, roots, precision: int) -> float:
    """-log10 of the max-norm distance to the nearest root, capped at precision."""
    dist = min(max(abs(mp.mpf(xi) - ri) for xi, ri in zip(x, root)) for root in roots)
    if dist == 0:
        return float(precision)
    return min(float(precision), float(-mp.log10(dist)))


def check_solve(problem, trace, mp: MPContext, roots, precision: int) -> Outcome:
    """A solve passes when it says converged and is right by both measures."""
    if trace.status is not solver.Status.CONVERGED:
        return Outcome(False, None, f"status {trace.status.value}")
    x = trace.rows[-1].x
    digits = correct_digits(mp, x, roots, precision)
    residual = numerics.norm_inf(scheme.evaluate_system(problem, x))
    limit = problem.context.pow10(-(precision - GUARD_DIGITS))
    if digits < precision - GUARD_DIGITS:
        return Outcome(False, digits, f"false converged: {digits:.1f} correct digits")
    if not residual <= limit:
        return Outcome(False, digits, "false converged: residual above 10^-(precision-50)")
    return Outcome(True, digits, f"{len(trace.rows) - 1} iterations")


# --- the wide synthetic systems ----------------------------------------------


def _decimal(value: Fraction) -> str:
    """Exact decimal text of a fraction whose denominator divides 10^4."""
    scaled = value * 10**4
    if scaled.denominator != 1:
        raise ValueError(f"{value} has no short exact decimal")
    text = f"{abs(scaled.numerator) / 10**4:.4f}".rstrip("0").rstrip(".")
    return ("-" if value < 0 else "") + text


def _shifted(name: str, r: Fraction) -> str:
    if r == 0:
        return name
    return f"{name} {'-' if r > 0 else '+'} {_decimal(abs(r))}"


def _nonzero_tenth(rng: random.Random, bound: int) -> Fraction:
    return Fraction(rng.choice([k for k in range(-bound, bound + 1) if k]), 10)


def synthetic_system(rng: random.Random, n: int = WIDE_NVARS):
    """Problem text of an n-variable system with an exact dyadic root.

    Equation j is A_j·(x - r) + c1·(x_a - r_a)(x_b - r_b) + c2·sin(x_c - r_c)
    + c3·(exp(x_e - r_e) - 1).  Every term vanishes at x = r, so r is the
    exact root.  The diagonal of A lies in [8, 12] and the off-diagonal
    entries and c1..c3 in [-1, 1], so within max-norm 1/2 of r the
    Jacobian's diagonal exceeds the rest of its row by more than 0.8
    (off-diagonal A at most 3.5; nonlinear terms at most 1 + 1 + e^(1/2)).
    The start lies within 1/2 of r, so convergence follows from the
    construction rather than from the choice of seed.
    """
    names = [f"x{i + 1}" for i in range(n)]
    root = [Fraction(rng.randint(-24, 24), 16) for _ in range(n)]
    start = [r + Fraction(rng.choice([k for k in range(-8, 9) if k]), 16) for r in root]
    shifted = [_shifted(name, r) for name, r in zip(names, root)]
    equations = []
    for j in range(n):
        terms = []
        for k in range(n):
            coeff = Fraction(rng.randint(80, 120), 10) if k == j else _nonzero_tenth(rng, 5)
            terms.append((coeff, shifted[k] if root[k] == 0 else f"({shifted[k]})"))
        a, b = rng.sample(range(n), 2)
        terms.append((_nonzero_tenth(rng, 10), f"({shifted[a]})*({shifted[b]})"))
        terms.append((_nonzero_tenth(rng, 10), f"sin({shifted[rng.randrange(n)]})"))
        terms.append((_nonzero_tenth(rng, 10), f"(exp({shifted[rng.randrange(n)]}) - 1)"))
        parts = []
        for coeff, factor in terms:
            sign = "-" if coeff < 0 else ("+" if parts else "")
            parts.append(f"{sign} {_decimal(abs(coeff))}*{factor}".lstrip())
        equations.append(" ".join(parts))
    lines = [f"vars: {' '.join(names)}"]
    lines += [f"eq: {eq}" for eq in equations]
    lines.append(f"start: {' '.join(_decimal(v) for v in start)}")
    lines.append(f"root: {' '.join(_decimal(v) for v in root)}")
    return "\n".join(lines) + "\n", tuple(root)


# --- jobs ----------------------------------------------------------------------


class SolveJob:
    """One solve of a parsed problem at one order."""

    def __init__(self, label, problem, order, mp, roots):
        self.label = label
        self.problem = problem
        self.order = order
        self.mp = mp
        self.roots = roots

    def run(self):
        precision = self.problem.context.precision
        return solver.solve(self.problem, solver.SolveConfig(self.order, precision))

    def check(self, trace) -> Outcome:
        precision = self.problem.context.precision
        return check_solve(self.problem, trace, self.mp, self.roots, precision)


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def check_tables(code: int, out_dir: Path, precision: int) -> Outcome:
    """Exit 0 and every table file byte-identical to the recorded digest."""
    if code != 0:
        return Outcome(False, None, f"tables exited {code}")
    found = sorted(p.name for p in out_dir.iterdir())
    if found != sorted(TABLE_DIGESTS):
        return Outcome(False, None, f"tables wrote {found}")
    digits = float(precision)
    for name, digest in TABLE_DIGESTS.items():
        data = (out_dir / name).read_bytes()
        if hashlib.sha256(data).hexdigest() != digest:
            return Outcome(False, None, f"{name} differs from the recorded tables")
        # last cell of the last row: the final error_vs_root
        final_error = data.decode().rstrip("\n").splitlines()[-1].split("|")[-2].strip()
        if final_error != "0":
            mantissa, exponent = final_error.split("e")
            digits = min(digits, -(math.log10(float(mantissa)) + int(exponent)))
    return Outcome(True, digits, "tables identical")


def check_order_check(code: int, output: str, orders) -> Outcome:
    """Exit 0 and an ``ok`` verdict on a row for every requested order."""
    if code != 0:
        return Outcome(False, None, f"order-check exited {code}")
    verdicts = {}
    for line in output.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].isdigit():
            verdicts[int(cells[0])] = cells[3]
    if sorted(verdicts) != sorted(orders):
        return Outcome(False, None, f"order-check reported orders {sorted(verdicts)}")
    bad = {k: v for k, v in verdicts.items() if v != "ok"}
    if bad:
        return Outcome(False, None, f"order-check verdicts {bad}")
    return Outcome(True, None, "all verdicts ok")


class TablesJob:
    """`invseries tables` into a scratch directory inside the checkout."""

    label = "cli tables"

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def run(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        code, _ = _run_cli(
            ["tables", "--precision", str(PAPER_PRECISION), "--out-dir", str(self.out_dir)]
        )
        return code

    def check(self, code) -> Outcome:
        try:
            return check_tables(code, self.out_dir, PAPER_PRECISION)
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)


class OrderCheckJob:
    """`invseries order-check` on one builtin at the paper's orders."""

    def __init__(self, builtin: str):
        self.builtin = builtin
        self.label = f"cli order-check {builtin}"

    def run(self):
        orders = ",".join(str(k) for k in PAPER_ORDERS)
        return _run_cli(
            ["order-check", "--builtin", self.builtin, "--orders", orders,
             "--precision", str(PAPER_PRECISION)]
        )

    def check(self, result) -> Outcome:
        code, output = result
        return check_order_check(code, output, PAPER_ORDERS)


# --- workloads -----------------------------------------------------------------


class Workload:
    """A named job list; ``setup`` is the part timed as ``setup_s``."""

    def __init__(self, name: str, seed: int, scratch: Path):
        self.name = name
        self.seed = seed
        self.scratch = scratch
        self.texts = []
        if name == "wide-synthetic":
            rng = random.Random(seed)
            self.texts = [synthetic_system(rng) for _ in range(WIDE_SYSTEMS)]
        elif name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; one of {', '.join(WORKLOADS)}")

    def setup(self) -> list:
        if self.name == "high-order":
            jobs = self._high_order()
        elif self.name == "wide-synthetic":
            jobs = self._wide()
        else:
            jobs = self._paper()
        # the seed also fixes the order in which a pass visits the jobs
        random.Random(self.seed).shuffle(jobs)
        return jobs

    def _high_order(self):
        problems = {}
        for name in dict(HIGH_ORDER_JOBS):
            ctx = numerics.Context(HIGH_ORDER_PRECISION)
            problems[name] = corpus.builtin_problem(name, ctx)
        jobs = []
        for name, order in HIGH_ORDER_JOBS:
            mp, roots = builtin_roots(name, HIGH_ORDER_PRECISION)
            jobs.append(SolveJob(f"{name} order {order}", problems[name], order, mp, roots))
        return jobs

    def _wide(self):
        jobs = []
        for i, (text, root) in enumerate(self.texts):
            ctx = numerics.Context(WIDE_PRECISION)
            problem = expr.parse_problem(text, ctx)
            mp = _reference_context(WIDE_PRECISION)
            roots = [tuple(mp.mpf(r.numerator) / r.denominator for r in root)]
            for order in WIDE_ORDERS:
                jobs.append(SolveJob(f"wide {i} order {order}", problem, order, mp, roots))
        return jobs

    def _paper(self):
        # The commands build their own problems; set-up builds the same
        # ones, so set-up cost moved into parsing or the corpus shows here.
        for name in PAPER_ORDER_CHECKS:
            corpus.builtin_problem(name, numerics.Context(PAPER_PRECISION))
        jobs = [TablesJob(self.scratch / "tables")]
        jobs += [OrderCheckJob(name) for name in PAPER_ORDER_CHECKS]
        return jobs
