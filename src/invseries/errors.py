"""Exception types shared across the package, and ``within_depth``: every
evaluation of a problem outside ``expr`` runs inside it."""

# the message of an evaluation that exceeds Python's recursion limit
NESTS_TOO_DEEPLY = "an expression nests too deeply to evaluate"


def within_depth(evaluate, *args):
    """``evaluate(*args)``, with a ``RecursionError`` raised as ``InvseriesError``;
    ``evaluate`` makes the reads it needs of a lazy ``jet_mul`` product, whose
    first read of a coefficient recurses through its factors."""
    try:
        return evaluate(*args)
    except RecursionError:
        raise InvseriesError(NESTS_TOO_DEEPLY) from None


class InvseriesError(Exception):
    """Base class for every error raised by this library."""


class MalformedDecimalError(InvseriesError, ValueError):
    """A decimal literal could not be parsed."""


class ShapeMismatchError(InvseriesError, ValueError):
    """Operands have incompatible dimensions or truncation degrees."""


class SingularMatrixError(InvseriesError):
    """A pivot fell below the singularity threshold during elimination."""


class DivisionByZeroJetError(InvseriesError, ZeroDivisionError):
    """A division by an exact zero, in any evaluator."""


class DomainError(InvseriesError, ValueError):
    """An elementary function was evaluated outside its real domain."""


class ParseError(InvseriesError, ValueError):
    """Problem text could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownVariableError(ParseError):
    """An expression referenced a name that was never declared."""


class NonSquareSystemError(ParseError):
    """Equation count does not match the declared variable count."""


class SchemeSizeError(InvseriesError, ValueError):
    """Requested convergence order exceeds the supported range."""


class InsufficientDataError(InvseriesError):
    """A trace does not contain enough usable iterations for an estimate."""


class IterationError(InvseriesError):
    """Evaluation failed while building an update; carries the iterate index."""

    def __init__(self, iteration, fault):
        self.iteration = iteration
        super().__init__(f"iteration {iteration}: {fault}")
