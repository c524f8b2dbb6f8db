"""The base of the package's immutable records.

A record's fields are its ``__slots__``, set once by its own ``__init__``;
any later assignment raises :class:`AttributeError`.  Equality and hashing
are by identity.  The records are plain classes rather than ``dataclasses``
because a dataclass generates and ``exec``s its methods when its module is
imported, and ``dataclasses`` loads ``inspect`` and the parsing modules
behind it: a fresh process would pay for both before computing anything.
"""

from __future__ import annotations

_set = object.__setattr__


class Frozen:
    """Read-only slots; subclasses list their fields in ``__slots__``."""

    __slots__ = ()

    def _fill(self, *values: object) -> None:
        """Set the fields, in ``__slots__`` order, from ``__init__``."""
        for name, value in zip(self.__slots__, values, strict=True):
            _set(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"
