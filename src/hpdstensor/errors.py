"""Exception types shared across the package."""


class HpdsError(Exception):
    """Base class for all package errors."""


class ShapeError(HpdsError, ValueError):
    """Operands have incompatible shapes."""


class ArgumentError(HpdsError, ValueError):
    """An argument is out of its documented domain."""


class NumericError(HpdsError, ArithmeticError):
    """A numerical computation received or produced non-finite values."""


class DivergenceError(NumericError):
    """A simulated trajectory left the finite range."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"trajectory diverged at step {step}")


class IdentifiabilityError(HpdsError):
    """The data does not satisfy the rank condition for identification."""

    def __init__(self, report, message: str | None = None):
        self.report = report
        super().__init__(
            message
            or f"rank condition failed: observed {report.observed_rank}, "
            f"required {report.required_rank}"
        )


class AssumptionError(HpdsError, ValueError):
    """A standing model assumption (such as l >= n) is violated."""


class ScaleError(HpdsError):
    """The requested computation exceeds the configured size guard."""
