"""Exception types shared across the package, and the one check of a count argument."""

import numpy as np


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class IntegrationError(RuntimeError):
    """A quadrature run could not produce a trustworthy value."""


class ConsistencyError(RuntimeError):
    """An internal invariant was violated (indicates a bug or bad inputs)."""


class EstimationError(RuntimeError):
    """A statistical estimate could not be formed from the given data."""


def check_count(value, name: str, minimum: int = 0) -> int:
    """``value`` as an int when it is an integer (numpy integers too) of at least ``minimum``.

    Bools, non-integers and smaller values raise ``DomainError``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be "
                          f"{'nonnegative' if minimum == 0 else f'at least {minimum}'}, "
                          f"got {value!r}")
    return int(value)
