"""The frozen base of the package's value classes.

A value class lists its fields in ``__slots__``.  When the class is
defined, the base moves each slot's descriptor to the private alias
``_<field>`` and puts a read-only property under the public name, so a
constructor stores each field once with a plain ``self._<field> = value``
and callers read ``obj.<field>`` but cannot assign or delete it.  The base
derives equality, hashing, ``repr`` and pickling from ``__slots__``, as
``@dataclass(frozen=True)`` would, without importing ``dataclasses`` or
generating code when the class is defined.  The aliases are private: like
``object.__setattr__`` on a frozen dataclass, assigning one bypasses the
constructor's checks.

A public constructor validates and normalises what it is given.  Where the
library builds a value from data it has just computed, and so knows to be
in normal form, it may call :meth:`Value._trusted` instead, which stores
the fields without running ``__init__``.  Unpickling and copying still go
through the public constructor.  The check of a type pair ``(p, q)``,
shared by the constructors and functions that take one, lives here and
not in ``cf``: the oracles run it, and they must call nothing in ``cf``.
"""

import math
from operator import attrgetter, index

from .errors import DomainError

_new = object.__new__


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        names = cls.__slots__
        cls.__match_args__ = names
        aliases = tuple(f"_{name}" for name in names)
        for name, alias in zip(names, aliases):
            setattr(cls, alias, vars(cls)[name])  # the slot's member descriptor
            setattr(cls, name, property(attrgetter(alias), doc=f"The {name} field (read-only)."))
        cls._aliases = aliases
        # the field values as a tuple, read at C speed (attrgetter returns a
        # bare value for a single name)
        get = attrgetter(*aliases)
        cls._fields = staticmethod(get if len(names) > 1 else lambda obj: (get(obj),))
        # the repr as one format string, filled from those field values
        cls._repr_format = f"{cls.__qualname__}({', '.join(f'{name}={{!r}}' for name in names)})"

    @classmethod
    def _trusted(cls, *fields):
        """The value with these fields, in slot order, stored without ``__init__``.

        Only for fields the library has just computed in the form the public
        constructor would return.  It saves that constructor's checks, and
        pays only where they cost more than this generic loop: a constructor
        whose checks are trivial is faster, so each call site is kept only
        where it measures faster than the public constructor.
        """
        obj = _new(cls)
        for alias, value in zip(cls._aliases, fields):
            setattr(obj, alias, value)
        return obj

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self) -> str:
        return self._repr_format.format(*self._fields(self))

    def __reduce__(self):
        return self.__class__, self._fields(self)


def _pq_ints(p, q, what: str) -> tuple[int, int]:
    """p and q as Python ints (bools and other ``__index__`` types), or
    DomainError naming ``what``."""
    try:
        return index(p), index(q)
    except TypeError:
        raise DomainError(f"{what} needs integers p and q, got {type(p).__name__} "
                          f"and {type(q).__name__}") from None


def _check_pq(p, q, what: str) -> tuple[int, int]:
    """p and q as Python ints with 1 <= q < p coprime, or DomainError naming ``what``."""
    p, q = _pq_ints(p, q, what)
    if not (1 <= q < p) or math.gcd(p, q) != 1:
        raise DomainError(f"{what} needs 1 <= q < p coprime, got ({p}, {q})")
    return p, q
