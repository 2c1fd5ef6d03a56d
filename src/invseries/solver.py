"""Fixed-point iteration engine with full per-iteration tracing.

Each step builds the series terms at the current iterate along -f there
and adds them to the iterate.  The only value carried from one step to
the next is f at the new iterate: it gives that iterate's residual in the
trace and is the direction of the following step.  Stopping is decided on
the max-norm of the step between successive iterates, which is the
quantity the trace tables report.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import InvseriesError, IterationError, MalformedDecimalError, SingularMatrixError
from .expr import Problem
from .numerics import (
    DEFAULT_PRECISION,
    Context,
    MPVector,
    check_precision,
    is_int,
    norm_inf,
)
from .scheme import apply_update, build_terms, check_order, evaluate_system

# a run of this many strict step-norm increases, ending above the first
# step, declares divergence (see ``diverged``)
DIVERGENCE_WINDOW = 3


class Status(Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max-iters"
    DIVERGED = "diverged"
    SINGULAR_JACOBIAN = "singular-jacobian"


@dataclass(frozen=True)
class SolveConfig:
    """Loop controls for one solve.

    ``order`` must be an int in 2..``MAX_ORDER``, ``precision`` one that
    ``Context`` accepts and ``max_iters`` an int >= 1 (``is_int``: a bool
    is none of them).  ``tol`` is decimal text that ``Context.const`` at
    ``precision``, the one parser of this check and of the solve, reads as
    positive (so "1e-900" is and "abc" is not).  It stops the
    iteration once the step max-norm falls to or below it; None selects
    10^-(precision - min(50, precision // 2)), so the default never exceeds
    10^-(precision // 2).  Divergence is declared once ``DIVERGENCE_WINDOW``
    consecutive step-norm increases end above the first step (``diverged``).
    """

    order: int
    precision: int = DEFAULT_PRECISION
    max_iters: int = 30
    tol: Optional[str] = None

    def __post_init__(self):
        check_order(self.order)
        check_precision(self.precision)
        if not is_int(self.max_iters) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an int >= 1, got {self.max_iters!r}")
        if self.tol is not None and not isinstance(self.tol, str):
            raise ValueError(f"tol must be decimal text, got {self.tol!r}")
        if self.tol is not None:
            try:
                positive = Context(self.precision).const(self.tol) > 0
            except MalformedDecimalError:  # not a number, so not a positive one
                positive = False
            if not positive:
                raise ValueError(f"tol must be a finite positive number, got {self.tol}")


@dataclass(frozen=True)
class TraceRow:
    """One iterate ``x``, the max-norm ``step_norm`` of the step that reached
    it (None at the start) and the max-norm ``residual_norm`` of f there."""

    x: MPVector
    step_norm: object
    residual_norm: object


@dataclass
class IterationTrace:
    """The ``problem`` solved, its ``rows`` from the start point on (row n
    is iteration n) and the terminal ``status``."""

    problem: Problem
    rows: list
    status: Status

    def step_norms(self):
        return [row.step_norm for row in self.rows[1:]]


def diverged(step_norms) -> bool:
    """Whether the last ``DIVERGENCE_WINDOW + 1`` step norms rise strictly and
    the newest exceeds the first."""
    tail = step_norms[-DIVERGENCE_WINDOW - 1 :]
    rising = len(tail) > DIVERGENCE_WINDOW and all(a < b for a, b in zip(tail, tail[1:]))
    return rising and tail[-1] > step_norms[0]


def resolve_tol(config: SolveConfig, ctx):
    if config.tol is None:
        guard = min(50, config.precision // 2)
        return ctx.pow10(-(config.precision - guard))
    return ctx.const(config.tol)


def solve(problem: Problem, config: SolveConfig) -> IterationTrace:
    """Iterate from the problem's start point until a terminal status.

    The trace records every iterate with its step norm and residual norm;
    the step itself is ``rows[n].x.sub(rows[n - 1].x)``, the bits whose
    norm the row stores.  A step ends the run as converged when its
    norm is at or below the tolerance, else as diverged when ``diverged``
    holds for the step norms of the rows so far.  An evaluation fault, any
    ``InvseriesError`` but a singular Jacobian (a domain error, a division by
    zero, too deep an expression), raises ``IterationError`` at its iteration.
    """
    ctx = problem.context
    if ctx.precision != config.precision:
        raise ValueError(
            f"problem parsed at {ctx.precision} digits but config requests "
            f"{config.precision}; re-parse the problem at the solve precision"
        )
    tol = resolve_tol(config, ctx)

    x = problem.start
    try:
        f_x = evaluate_system(problem, x)
    except InvseriesError as exc:
        raise IterationError(0, exc) from exc
    rows = [TraceRow(x, None, norm_inf(f_x))]
    status = Status.MAX_ITERS

    for it in range(1, config.max_iters + 1):
        try:
            terms = build_terms(problem, x, MPVector(-v for v in f_x), config.order - 1)
            new_x = apply_update(terms, x)
            new_f = evaluate_system(problem, new_x)
        except SingularMatrixError:
            status = Status.SINGULAR_JACOBIAN
            break
        except InvseriesError as exc:
            raise IterationError(it, exc) from exc
        snorm = norm_inf(new_x.sub(x))
        rows.append(TraceRow(new_x, snorm, norm_inf(new_f)))
        x, f_x = new_x, new_f
        if snorm <= tol:
            status = Status.CONVERGED
            break
        if diverged([row.step_norm for row in rows[1:]]):
            status = Status.DIVERGED
            break

    return IterationTrace(problem, rows, status)
