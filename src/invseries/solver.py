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

import mpmath

from .errors import DomainError, IterationError, SingularMatrixError
from .expr import Problem
from .numerics import DEFAULT_PRECISION, MPVector, norm_inf
from .scheme import apply_update, build_terms, check_order, evaluate_system

# consecutive step-norm increases (each also above the first step) that
# declare divergence
DIVERGENCE_WINDOW = 3


class Status(Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max-iters"
    DIVERGED = "diverged"
    SINGULAR_JACOBIAN = "singular-jacobian"


@dataclass(frozen=True)
class SolveConfig:
    """Loop controls for one solve.

    ``order`` must lie in 2..``MAX_ORDER``.  ``tol``, a finite positive number
    (text is parsed by mpmath, so "1e-900" stays positive), stops the
    iteration once the step max-norm falls to or below it; None selects
    10^-(precision - min(50, precision // 2)), so the default never exceeds
    10^-(precision // 2).  Divergence is declared after
    ``DIVERGENCE_WINDOW`` consecutive step-norm increases that also exceed
    the first step.
    """

    order: int
    precision: int = DEFAULT_PRECISION
    max_iters: int = 30
    tol: Optional[str | float] = None

    def __post_init__(self):
        check_order(self.order)
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol is not None and not 0 < mpmath.mpf(self.tol) < mpmath.inf:
            raise ValueError(f"tol must be a finite positive number, got {self.tol}")


@dataclass(frozen=True)
class TraceRow:
    index: int
    x: MPVector
    step: Optional[MPVector]
    step_norm: object
    residual_norm: object
    error_vs_root: object


@dataclass
class IterationTrace:
    problem: Problem
    rows: list
    status: Status

    def step_norms(self):
        return [row.step_norm for row in self.rows[1:]]


def _error_vs_root(problem: Problem, x: MPVector):
    if not problem.known_roots:
        return None
    return min(norm_inf(x.sub(root)) for root in problem.known_roots)


def resolve_tol(config: SolveConfig, ctx):
    if config.tol is None:
        guard = min(50, config.precision // 2)
        return ctx.pow10(-(config.precision - guard))
    return ctx.mp.mpf(config.tol)


def solve(problem: Problem, config: SolveConfig) -> IterationTrace:
    """Iterate from the problem's start point until a terminal status.

    The trace records every iterate with its step, step norm, residual
    norm, and (when roots are configured) the max-norm distance to the
    nearest known root.
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
    except (DomainError, ZeroDivisionError) as exc:
        raise IterationError(0, str(exc)) from exc
    rows = [TraceRow(0, x, None, None, norm_inf(f_x), _error_vs_root(problem, x))]
    status = Status.MAX_ITERS
    first_step_norm = None
    prev_step_norm = None
    increase_run = 0

    for it in range(1, config.max_iters + 1):
        try:
            terms = build_terms(problem, x, MPVector(-v for v in f_x), config.order - 1)
            new_x = apply_update(terms, x)
            new_f = evaluate_system(problem, new_x)
        except SingularMatrixError:
            status = Status.SINGULAR_JACOBIAN
            break
        except (DomainError, ZeroDivisionError) as exc:
            raise IterationError(it, str(exc)) from exc
        step = new_x.sub(x)
        snorm = norm_inf(step)
        error = _error_vs_root(problem, new_x)
        rows.append(TraceRow(it, new_x, step, snorm, norm_inf(new_f), error))
        x, f_x = new_x, new_f
        if snorm <= tol:
            status = Status.CONVERGED
            break
        if first_step_norm is None:
            first_step_norm = snorm
        if prev_step_norm is not None and snorm > prev_step_norm:
            increase_run += 1
        else:
            increase_run = 0
        if increase_run >= DIVERGENCE_WINDOW and snorm > first_step_norm:
            status = Status.DIVERGED
            break
        prev_step_norm = snorm

    return IterationTrace(problem, rows, status)
