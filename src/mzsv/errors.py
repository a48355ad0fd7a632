"""Exception hierarchy.

Exit-code mapping used by the CLI: DomainError/ParseError/ConfigurationError
are usage-level failures (exit 2), ConvergenceError is a numerical failure
(exit 3). Everything derives from MzsvError so library users can catch one
base class.
"""


class MzsvError(Exception):
    """Base class for all package errors."""


class DomainError(MzsvError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ParseError(MzsvError, ValueError):
    """Malformed textual input (index grammar, parameter lists)."""


class ContextMismatchError(MzsvError, TypeError):
    """Two high-precision values from different precision contexts were mixed."""


class ConvergenceError(MzsvError, ArithmeticError):
    """A series or summation strategy could not reach the requested tolerance."""


class ConsistencyError(MzsvError, ArithmeticError):
    """Two internal evaluation routes disagree beyond tolerance (an implementation bug)."""


class ConditionError(MzsvError, ValueError):
    """Hypergeometric hypothesis conditions are violated; carries the report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConfigurationError(MzsvError, ValueError):
    """A verification-suite request matched nothing or is malformed."""
