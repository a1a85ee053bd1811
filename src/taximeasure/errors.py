"""Exception types shared across the package."""

from __future__ import annotations


class TaximeasureError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TaximeasureError, ValueError):
    """An argument violates a documented precondition (non-finite, out of range...)."""


class SpecError(TaximeasureError, ValueError):
    """A shape or profile specification is structurally malformed."""


class IntegrandError(TaximeasureError, ArithmeticError):
    """The integrand returned a non-finite value at a sampled abscissa."""

    def __init__(self, abscissa: float, value: float):
        self.abscissa = float(abscissa)
        self.value = value
        super().__init__(f"integrand returned {value!r} at x={self.abscissa!r}")


class ConvergenceError(TaximeasureError, ArithmeticError):
    """Adaptive refinement exhausted its budget before reaching tolerance.

    Carries the best estimate so the caller can still inspect it.
    """

    def __init__(self, message: str, value: float, error_estimate: float):
        self.value = float(value)
        self.error_estimate = float(error_estimate)
        super().__init__(f"{message} (best estimate {self.value!r}, "
                         f"error estimate {self.error_estimate:.3e})")
