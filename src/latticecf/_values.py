"""The frozen base of the package's value classes.

A value class lists its fields in ``__slots__`` and assigns each one once,
in its own ``__init__``, through :data:`_set`.  The base derives equality,
hashing, ``repr``, immutability and pickling from ``__slots__``, as
``@dataclass(frozen=True)`` would, without importing ``dataclasses`` or
generating code when the class is defined.

A public constructor validates and normalises what it is given.  Where the
library builds a value from data it has just computed, and so knows to be
in normal form, it calls :meth:`Value._trusted` instead, which sets the
slots without running ``__init__``.  Unpickling and copying still go
through the public constructor.
"""

from operator import attrgetter

_set = object.__setattr__
_new = object.__new__


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__slots__
        cls.__match_args__ = names
        # the field values as a tuple, read at C speed (attrgetter returns a
        # bare value for a single name)
        get = attrgetter(*names)
        cls._fields = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))

    @classmethod
    def _trusted(cls, *fields):
        """The value with these fields, in slot order, set without ``__init__``.

        Only for fields the library has just computed in the form the public
        constructor would return.  It saves that constructor's checks, and
        pays only where they cost more than this generic loop: a constructor
        whose checks are trivial (``Vertex``, ``ConeNF``) is faster.
        """
        obj = _new(cls)
        for name, value in zip(cls.__slots__, fields):
            _set(obj, name, value)
        return obj

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
