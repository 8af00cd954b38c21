"""Immutable value records: the base of ``Poly``, ``GrassmannContext``,
``CohomologyClass`` and ``ObstructionReport``.

A record's fields are its class's ``__slots__``, in order.  The subclass's
``__init__`` checks its arguments and passes every field, in that order, to
``Record.__init__``.  Records compare and hash by their fields, within one
type only, and print as ``Name(field=value, ...)`` unless the subclass
prints otherwise.  copy and pickle rebuild a record through its class's
``__init__``.  This is the part of a frozen dataclass the package uses,
without importing ``dataclasses``.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which rechecks the fields
        return type(self), self._values()
