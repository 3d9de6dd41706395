"""The base of the package's immutable values and reports.

A subclass names its fields once, in one tuple: its `__slots__`, or
`_fields` when it keeps a `__dict__` for cached properties.  Its own
`__init__` stores them with `set_field`, which is `object.__setattr__`.
From that tuple the base gives, without generating any code: `==` field by
field within one class (NotImplemented for any other), a hash equal to the
hash of the tuple of field values, the repr `Name(field=value, ...)`,
copies and pickles made through the constructor, and assignment and
deletion that raise AttributeError.
"""

from operator import attrgetter

# one global lookup, where `object.__setattr__` takes two: values are built
# on the arithmetic's hot paths
set_field = object.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        own = cls.__dict__
        cls._fields = fields = own.get("_fields") or own.get("__slots__") or cls._fields
        get = attrgetter(*fields)
        # the field values as one tuple, even for a single field
        cls._values = staticmethod(get if len(fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
