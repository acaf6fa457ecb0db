"""Exception types and the default tolerance shared across the package."""

#: Absolute tolerance of the oracle's reference values unless a caller asks
#: for another (``constants`` takes it for gamma); also the default of
#: ``eval``'s ``--precision``, which sets only the digits it prints.
DEFAULT_EPS = 1e-12


class DomainError(ValueError):
    """Argument outside the documented domain of a function or bound family."""


class ToleranceError(ArithmeticError):
    """Requested absolute tolerance cannot be certified at working precision."""


class UndecidedComparisonError(ArithmeticError):
    """A strict comparison fell inside the working-precision noise floor.

    Raised instead of silently passing or failing: the data cannot support
    either verdict.
    """
