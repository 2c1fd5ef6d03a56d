"""Iterative schemes of arbitrary convergence order for nonlinear systems.

The update of order k is the truncation, after k-1 terms, of the Taylor
series of the local inverse of the system, expanded around the current
residual and evaluated at zero.  All derivative information is produced by
truncated Taylor (jet) arithmetic at arbitrary precision, so schemes of
any order are built numerically without symbolic algebra.
"""

from .analysis import (
    OrderEstimate,
    error_constant_check,
    estimate_order_known_root,
    estimate_order_successive,
    render_table,
)
from .corpus import BUILTIN_NAMES, builtin_problem
from .errors import (
    DivisionByZeroJetError,
    DomainError,
    InsufficientDataError,
    InvseriesError,
    IterationError,
    MalformedDecimalError,
    NonSquareSystemError,
    ParseError,
    SchemeSizeError,
    ShapeMismatchError,
    SingularMatrixError,
    UnknownVariableError,
)
from .expr import (
    Problem,
    eval_jet,
    eval_scalar,
    parse_problem,
)
from .numerics import (
    DEFAULT_PRECISION,
    Context,
    MPMatrix,
    MPVector,
    format_scalar,
    lu_invert,
    norm_inf,
    scalar_from_decimal,
)
from .scheme import (
    SeriesMatrix,
    apply_update,
    build_terms,
    evaluate_system,
    jacobian,
    jacobian_series,
    series_matrix_inverse,
)
from .solver import IterationTrace, SolveConfig, Status, TraceRow, solve
from .taylor import (
    TaylorPoly,
    jet_add,
    jet_compose_univariate,
    jet_constant,
    jet_mul,
    jet_partial,
    jet_recip,
    jet_sub,
    jet_var,
    multi_indices,
)

__version__ = "0.1.0"
