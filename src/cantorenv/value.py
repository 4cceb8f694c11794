"""Frozen value classes, built with no generated code.

A subclass of `Value` declares its fields as class annotations, in order,
and their defaults as class attributes; every annotation in its body is a
field.  `__init_subclass__` reads them once per class, and the methods
below give each instance the semantics of a frozen dataclass:

* `==` holds only between instances of the very same class, with equal
  fields; an instance of any other class, a subclass too, gets
  NotImplemented.
* `hash` is the hash of the tuple of the fields.
* `repr` is `QualName(field=value!r, ...)`, in declaration order.
* Assigning or deleting any attribute raises `FrozenInstanceError`.
* The generic constructor takes the fields positionally or by keyword and
  fills the omitted ones from their defaults.

Constructors, trusted constructors and memoized properties write past the
frozen `__setattr__` with `set_field`, which is `object.__setattr__`.
`trusted(field)` is the one trusted constructor of a one-field class: it
stores `tuple(value)` unchecked, and the class binds it once with its field
name (`_canonical = trusted("words")`) and a comment on its callers' promise.
Writing through `__dict__` would work too, but CPython (3.11 and later)
keeps instance values inline until `__dict__` is first asked for, and reads
a field much faster from inline values than from a materialized dict.  A
class whose construction is hot, or that needs more than a plain default,
writes its own `__init__`.
"""

from __future__ import annotations

from operator import attrgetter

set_field = object.__setattr__


def trusted(field: str) -> classmethod:
    """A classmethod that builds an instance whose `field` is tuple(value)."""
    def _canonical(cls, value):
        out = object.__new__(cls)
        set_field(out, field, tuple(value))
        return out

    return classmethod(_canonical)


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen value."""


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        if not fields:
            return
        cls._fields = fields
        cls._defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        # one field: its value, so equality compares it directly; more: their tuple
        get = attrgetter(*fields)

        def __eq__(self, other):
            if other.__class__ is not self.__class__:
                return NotImplemented
            return get(self) == get(other)

        if len(fields) == 1:
            def __hash__(self) -> int:
                return hash((get(self),))
        else:
            def __hash__(self) -> int:
                return hash(get(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._complete(args, kwargs)
        for field, value in zip(fields, args):
            set_field(self, field, value)

    def _complete(self, args, kwargs) -> list:
        """Every field's value, in order, from the arguments and the defaults."""
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields, not {len(args)}")
        given = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields or field in given:
                raise TypeError(f"{name}() got an unknown or repeated field {field!r}")
            given[field] = value
        values = self._defaults | given
        for field in fields:
            if field not in values:
                raise TypeError(f"{name}() is missing field {field!r}")
        return [values[field] for field in fields]

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
