"""Exceptions shared across the package, and the argument checks that raise ``ValueError``."""

import math
from numbers import Real


class CovertSetCoverError(Exception):
    """Base class for all package-specific errors."""


class UncoverableInstanceError(CovertSetCoverError):
    """The family cannot cover the universe; carries a witness element."""

    def __init__(self, element, message=None):
        self.element = element
        super().__init__(message or f"element {element} is not contained in any set")


class InvalidCoverError(CovertSetCoverError):
    """A claimed cover violates its invariants (duplicates, gaps, dead picks)."""


class BruteForceCapExceededError(CovertSetCoverError):
    """Instance too large for exhaustive optimum search."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _require_ints(**values) -> None:
    for name, value in values.items():
        _require(type(value) is int, f"{name} must be an integer, got {value!r}")


def require_run_constants(**constants) -> None:
    """Raise ``ValueError`` naming the first constant that is not a finite positive real.

    A bool is not one. The algorithms check before they issue any query.
    """
    for name, value in constants.items():
        real = isinstance(value, Real) and not isinstance(value, bool)
        _require(real and math.isfinite(value) and value > 0,
                 f"{name} must be finite and positive, got {value!r}")


def require_oracle(oracle, oracle_type: type) -> None:
    """Raise ``ValueError`` unless ``oracle`` is an ``oracle_type`` (a subclass counts).

    The algorithms' entry points check before anything else, so a wrong
    argument never ends in an ``AttributeError`` part-way through.
    """
    _require(isinstance(oracle, oracle_type),
             f"oracle must be a {oracle_type.__name__}, got {type(oracle).__name__}")
