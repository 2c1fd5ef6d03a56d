"""Fixed-point iteration engine with full per-iteration tracing.

Each step rebuilds the coefficient tensors at the current iterate and
applies the contraction update.  The only value carried from one step to
the next is f at the new iterate: it gives that iterate's residual in the
trace and is the f the following step contracts.  Stopping is decided on
the max-norm of the step between successive iterates, which is the
quantity the trace tables report.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import DomainError, IterationError, SingularMatrixError
from .expr import Problem
from .numerics import DEFAULT_PRECISION, MPVector, norm_inf
from .scheme import SchemeSpec, apply_update, build_terms, evaluate_system

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

    ``tol`` stops the iteration once the step max-norm falls to or below
    it; None selects 10^(-precision+50).  Divergence is declared after
    ``DIVERGENCE_WINDOW`` consecutive step-norm increases that also exceed
    the first step.
    """

    order: int
    precision: int = DEFAULT_PRECISION
    max_iters: int = 30
    tol: Optional[str | float] = None

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"order must be >= 2, got {self.order}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


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

    @property
    def precision(self) -> int:
        return self.problem.context.precision

    @property
    def final_residual(self):
        return self.rows[-1].residual_norm

    def step_norms(self):
        return [row.step_norm for row in self.rows[1:]]


def _error_vs_root(problem: Problem, x: MPVector):
    if not problem.known_roots:
        return None
    return min(norm_inf(x.sub(root)) for root in problem.known_roots)


def resolve_tol(config: SolveConfig, ctx):
    if config.tol is None:
        return ctx.pow10(-config.precision + 50)
    tol = ctx.mp.mpf(config.tol)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {config.tol}")
    return tol


def iterate_once(problem: Problem, point: MPVector, spec: SchemeSpec) -> MPVector:
    """One application of the order-k update at a point."""
    terms = build_terms(problem, point, spec)
    return apply_update(terms, evaluate_system(problem, point), point)


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
    spec = SchemeSpec(config.order)

    x = problem.start
    f_x = evaluate_system(problem, x)
    rows = [TraceRow(0, x, None, None, norm_inf(f_x), _error_vs_root(problem, x))]
    status = Status.MAX_ITERS
    first_step_norm = None
    prev_step_norm = None
    increase_run = 0

    for it in range(1, config.max_iters + 1):
        try:
            terms = build_terms(problem, x, spec)
            new_x = apply_update(terms, f_x, x)
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
