"""The immutable value classes' common base.

A subclass names its fields, in order, in ``_fields`` and declares
``__slots__``.  The constructor takes every field once, by position or by
name, with no defaults; a class that validates or derives writes its own
``__init__`` and stores through :meth:`Frozen._assign`.  ``to_json`` writes
the fields by name in field order, a value by its own ``to_json`` and a
tuple as a list; a class whose JSON is not its fields writes its own.
Every class gets equality and hashing by its fields (instances of
different classes are never equal), the repr ``Name(field=value, ...)``,
pickling by re-running the constructor, and no assignment: setting or
deleting an attribute raises AttributeError.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


def _json(value):
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    return value.to_json() if hasattr(value, "to_json") else value


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # what eq and hash compare: the field values read by one C-level
        # getter (the bare value when there is a single field)
        cls._key = property(attrgetter(*cls._fields))

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields {fields}, got {len(args)}")
        values = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name} has no field {key!r}")
            if key in values:
                raise TypeError(f"{name} got field {key!r} twice")
        values.update(kwargs)
        if missing := [key for key in fields if key not in values]:
            raise TypeError(f"{name} is missing fields {tuple(missing)}")
        self._assign(**values)

    def _assign(self, **values) -> None:
        for name, value in values.items():
            _set(self, name, value)

    def to_json(self) -> dict:
        return {name: _json(getattr(self, name)) for name in self._fields}

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
