"""Immutable records: the one base class of the package's value types.

A record names its fields, in constructor order, in `FIELDS`.  `Frozen`
builds it: the constructor takes one value per field, sets each with
`object.__setattr__`, and calls `check_shape()`, where a record checks
its fields and may normalize them the same way.  A record writes out its
`__init__` only when its signature has defaults.  Instances compare and
hash by class and field values, print as `Name(field=value, ...)`, copy
and pickle through the constructor, and refuse assignment and deletion.
A record declares `__slots__ = FIELDS` unless it keeps more than its
fields: a `functools.cached_property` writes the instance `__dict__`.
"""

from __future__ import annotations


class Frozen:
    __slots__ = ()
    FIELDS: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self.FIELDS):
            raise TypeError(
                f"{type(self).__qualname__}() takes {len(self.FIELDS)} values, "
                f"one per field of {self.FIELDS}, but {len(values)} were given"
            )
        for name, value in zip(self.FIELDS, values):
            object.__setattr__(self, name, value)
        self.check_shape()

    def check_shape(self) -> None:
        """Raise on field values the record refuses; every value passes here."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.FIELDS])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.FIELDS])
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self) -> tuple:
        # Copies and pickles rebuild through the constructor, which takes
        # the fields in FIELDS order; slots refuse the default rebuild.
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
