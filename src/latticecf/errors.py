"""Typed exceptions shared by all latticecf modules."""


class LatticeCFError(Exception):
    """Base class for every error raised by this package."""


class DomainError(LatticeCFError):
    """An argument lies outside the mathematical domain of the operation."""


class InvalidSequence(LatticeCFError):
    """A partial-quotient sequence violates its admissibility restrictions."""


class DivisionByZero(LatticeCFError):
    """An intermediate tail of a continued fraction evaluates to zero."""


class ZeroVector(LatticeCFError):
    """A lattice vector required to be nonzero is zero."""


class DegenerateCone(LatticeCFError):
    """The two given rays are proportional and span no 2-dimensional cone."""


class RegularCone(LatticeCFError):
    """The operation is undefined for regular (unimodular) cones."""


class NotContractible(LatticeCFError):
    """The intersection matrix is not negative definite."""


class Disconnected(LatticeCFError):
    """The graph is not connected."""


class UnknownVertex(LatticeCFError):
    """A vertex index does not belong to the graph."""


class InvalidCycle(LatticeCFError):
    """A cyclic weight sequence violates the cusp-cycle conditions."""


class CycleTooShort(LatticeCFError):
    """The trace formula needs a cycle of length at least two."""


class InternalError(LatticeCFError):
    """An internal invariant failed: a fault in this package, not in the input."""
