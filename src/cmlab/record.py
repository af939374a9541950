"""Immutable slotted records: the one base of every cmlab value type.

A record class names its fields in __slots__, in order.  Record(*values)
takes one value per field in that order, fills the slots and runs the
type's one check, __post_init__ (none by default).  == and hash compare the
tuple of fields of two records of the same class, and repr shows
Name(field=value, ...).

Instances are immutable: assigning or deleting an attribute raises
AttributeError.  There is no per-instance __dict__, and building a class
generates no code, so a command pays nothing at start-up for the record
types it never uses.
"""


class Record:
    __slots__ = ()

    def __init__(self, *values) -> None:
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, got {len(values)}")
        fill = object.__setattr__  # the one bypass of __setattr__ below
        for k, name in enumerate(names):
            fill(self, name, values[k])
        self.__post_init__()

    def __post_init__(self) -> None:
        """The type's check of its fields, run once per construction."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
