"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the documented domain of a function or bound family."""


class ToleranceError(ArithmeticError):
    """The value's rigorous radius exceeds the requested absolute tolerance."""


class UndecidedComparisonError(ArithmeticError):
    """A strict comparison fell inside the working-precision noise floor.

    Raised instead of silently passing or failing: the data cannot support
    either verdict.
    """
