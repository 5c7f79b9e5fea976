"""The immutable value classes' common base.

A subclass names its constructor arguments, in order, in ``_fields``,
declares ``__slots__`` and stores the arguments from ``__init__`` with
:meth:`Frozen._assign`.  It gets equality and hashing by those fields
(instances of different classes are never equal), the repr
``Name(field=value, ...)``, pickling by re-running the constructor, and
no assignment: setting or deleting an attribute raises AttributeError.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # what eq and hash compare: the field values read by one C-level
        # getter (the bare value when there is a single field)
        cls._key = property(attrgetter(*cls._fields))

    def _assign(self, **values) -> None:
        for name, value in values.items():
            _set(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
