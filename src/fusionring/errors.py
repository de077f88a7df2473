"""Exceptions shared across the package, and the integer check that raises one."""

from operator import index


class InputError(ValueError):
    """Invalid user-supplied data (bad rank, weight outside alcove, ...)."""


class InternalLimitError(RuntimeError):
    """A configured search or reduction bound was exceeded."""


def _integer(x, name: str) -> int:
    """x as an int: an InputError naming it unless it is an integer."""
    try:
        return index(x)
    except TypeError:
        raise InputError(f"{name} {x!r} is not an integer") from None
