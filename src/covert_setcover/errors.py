"""Exceptions shared across the package, and the argument checks that raise ``ValueError``."""

import math
from numbers import Real

# The most elements, sets, vertices or vertex pairs one instance may have (a
# graph of at most 1448 vertices). Every way in checks its sizes against it
# before it allocates anything, so an absurd size is a ValueError, not a
# MemoryError part-way through.
MAX_INSTANCE_SIZE = 2**20
# The most set entries a generated family may have, checked as n * m before any
# draw: it bounds every model's entries and uniform-random's draws, and admits
# planted n = m = 2**14.
MAX_INSTANCE_ENTRIES = 2**28


class CovertSetCoverError(Exception):
    """Base class for all package-specific errors."""


class UncoverableInstanceError(CovertSetCoverError):
    """The family cannot cover the universe; carries a witness element."""

    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element} is not contained in any set")


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


def require_size(what: str, size: int, limit: int = MAX_INSTANCE_SIZE) -> None:
    """Raise ``ValueError`` unless ``size`` is at most ``limit``."""
    _require(size <= limit, f"{what} is {size}; at most {limit} are allowed")


def require_count(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an ``int`` in [1, the size cap].

    A bool is not one. A size is checked before anything is allocated for it.
    """
    _require(type(value) is int and value >= 1, f"{name} must be an integer >= 1, got {value!r}")
    require_size(name, value)


def require_document(doc, what: str, keys: tuple[str, ...]) -> None:
    """Raise ``ValueError`` unless a parsed JSON ``doc`` is an object holding every key."""
    _require(isinstance(doc, dict), f"a {what} must be a JSON object, got {type(doc).__name__}")
    for key in keys:
        _require(key in doc, f'{what} JSON has no "{key}" field')


def require_run_constants(**constants) -> None:
    """Raise ``ValueError`` naming the first constant that is not a finite positive real.

    A bool is not one. The algorithms check before they issue any query.
    """
    for name, value in constants.items():
        real = isinstance(value, Real) and not isinstance(value, bool)
        _require(real and 0 < value < math.inf,
                 f"{name} must be finite and positive, got {value!r}")


def require_theta(theta) -> None:
    """Raise ``ValueError`` unless greedy's relaxation ``theta`` is a real in (0, 1]."""
    require_run_constants(theta=theta)
    _require(theta <= 1, f"theta must be a number in (0, 1], got {theta!r}")


# Checks that run per query or per probe format their message only when they fail.
def require_instance(name: str, value, kind: type) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a ``kind`` (a subclass counts).

    Entry points check first, so a wrong argument never ends in an ``AttributeError``.
    """
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def require_index(what: str, value, n: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an ``int`` in [1, n]; a bool or 2.0 is not one."""
    if type(value) is not int or not 1 <= value <= n:
        raise ValueError(f"{what} {value!r} outside [1, {n}] or is not an integer")
