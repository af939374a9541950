"""Immutable slotted records: the one base of every cmlab value type.

A record class names its fields in __slots__, in order: == and hash
compare the tuple of fields of two records of the same class, and repr
shows Name(field=value, ...).

Instances are immutable: assigning or deleting an attribute raises
AttributeError.  A constructor fills its slots with set_slot.  There is no
per-instance __dict__, and building a class generates no code, so a
command pays nothing at start-up for the record types it never uses.
"""
from operator import attrgetter

# object.__setattr__ bypasses the refusal below; constructors only
set_slot = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        cls._fields = cls.__slots__
        # attrgetter of a single name returns the bare value, not a 1-tuple
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
