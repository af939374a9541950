"""Immutable slotted records: the one base of every cmlab value type.

A record class names its attributes in __slots__.  Those without a leading
underscore are its fields, in __slots__ order: == and hash compare the
tuple of fields of two records of the same class, and repr shows
Name(field=value, ...).  An attribute with a leading underscore is a cache
derived from the fields and takes no part in any of them.

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
        fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        get = attrgetter(*fields)
        cls._fields = fields
        # attrgetter of a single name returns the bare value, not a 1-tuple
        cls._values = staticmethod(get if len(fields) > 1 else lambda self: (get(self),))

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
