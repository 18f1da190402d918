"""Immutable records: the one base class of the package's value types.

A subclass names its fields, in constructor order, in `FIELDS`, and its
`__init__` sets each with `object.__setattr__`.  Instances compare and
hash by class and field values, print as `Name(field=value, ...)`, copy
and pickle through the constructor, and refuse assignment and deletion.
A `functools.cached_property` still fills in, as it writes the instance
`__dict__` directly; a subclass without one declares
`__slots__ = FIELDS`.
"""

from __future__ import annotations


class Frozen:
    __slots__ = ()
    FIELDS: tuple[str, ...] = ()

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
