"""The frozen base of the package's value classes.

A value class lists its fields in ``__slots__`` and assigns each one once,
in its own ``__init__``, through :data:`_set`.  The base derives equality,
hashing, ``repr``, immutability and pickling from ``__slots__``, as
``@dataclass(frozen=True)`` would, without importing ``dataclasses`` or
generating code when the class is defined.
"""

from operator import attrgetter

_set = object.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__slots__
        cls.__match_args__ = names
        # the field values as a tuple, read at C speed (attrgetter returns a
        # bare value for a single name)
        get = attrgetter(*names)
        cls._fields = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields(self)
