"""Error types shared across the package, and the number check that raises one."""

import numbers
import sys


class ParameterError(ValueError):
    """An operation's precondition on its parameters was violated."""


def shown(value) -> str:
    """``repr(value)`` for an error message: at most its first 40 characters, and its length."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def checked_number(value, name: str, integer: bool = False) -> int | float:
    """``value`` as an int if ``integer``, else as a float, never truncated.

    A boolean, a non-number, a value beyond the finite float range (NaN, an
    infinity, a huge integer) or a non-integral value for an integer is a
    ParameterError naming ``name`` and showing ``value``, cut by ``shown``.
    """
    must = "an integer" if integer else "a number"
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if not abs(value) <= sys.float_info.max:
            must = "finite and within the float range"
        elif not integer or value % 1 == 0:
            return int(value) if integer else float(value)
    raise ParameterError(f"{name} must be {must}, got {shown(value)}")


class ConfigError(ValueError):
    """A run configuration failed schema or invariant validation."""


class DenoiserError(RuntimeError):
    """A denoiser call failed.

    Carries sampling-step context when raised inside a sampling loop so that
    failures from remote backends can name the step that broke.
    """

    def __init__(self, message: str, *, sampling_step: int | None = None,
                 training_step: int | None = None):
        if sampling_step is not None:
            message = f"{message} (sampling step {sampling_step}, training step {training_step})"
        super().__init__(message)
        self.sampling_step = sampling_step
        self.training_step = training_step
