"""Exception types shared across the package (and mapped to CLI exit codes),
and the check of the positive numbers it takes."""

import math


class SingheatError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(SingheatError):
    """Bad or missing configuration input."""


class HypothesisError(SingheatError):
    """A theorem's admissibility condition is violated for the given data."""


class NoRootError(SingheatError):
    """Mass-normalization constant could not be bracketed."""


class SingularSteadyStateError(SingheatError):
    """Steady-state denominator loses positivity."""


class SolverError(SingheatError):
    """Time stepper failed (Newton divergence, CFL floor, ...)."""


class QuenchError(SolverError):
    """Solution approached the singular set u = 0."""


def require_positive(**values) -> None:
    """ValueError naming the first of the keyword values that is not finite and > 0."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
