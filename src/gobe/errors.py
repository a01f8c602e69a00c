"""Exception types shared across the package."""

import numpy as np


class ValidationError(ValueError):
    """Input data or parameters violate a documented precondition."""


class SchemaError(ValueError):
    """A column-role mapping or config does not match the input file."""


class ParseError(ValueError):
    """A cell in an input file could not be parsed; message names the row."""


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations.

    Carries the last objective value reached so callers can report it.
    """

    def __init__(self, message: str, last_deviance: float | None = None):
        super().__init__(message)
        self.last_deviance = last_deviance


# What "this model cannot fit this data" raises. Harnesses that record a
# failed fit and go on catch only these; anything else is a bug and propagates.
MODEL_FAILURES = (ValidationError, ConvergenceError, np.linalg.LinAlgError)
