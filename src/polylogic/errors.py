"""Shared error taxonomy.

Every error that can reach the CLI derives from PolylogicError so the
front end can map it to exit code 2 with a one-line diagnostic.
"""


class PolylogicError(Exception):
    pass


class ParseError(PolylogicError):
    """Syntax error in the concrete formula syntax."""

    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"syntax error at offset {offset}: expected {expected}")


class CycleError(PolylogicError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("cover relation contains a cycle: " + " < ".join(self.cycle))


class UnknownElement(PolylogicError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown element: {name!r}")


class CapExceeded(PolylogicError):
    def __init__(self, count):
        self.count = count
        super().__init__(f"up-set enumeration cap exceeded after {count} sets")


class BudgetExceeded(PolylogicError):
    def __init__(self, count):
        self.count = count
        super().__init__(f"evaluation budget exceeded: {count} valuations required")


class MissingAtom(PolylogicError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"valuation does not assign atom {name!r}")


class NotMonotone(PolylogicError):
    pass


class NotPMorphism(PolylogicError):
    pass


class TrivialAlgebra(PolylogicError):
    pass


class EmptyPoset(PolylogicError):
    pass


class NotACountermodel(PolylogicError):
    pass


class GeometryError(PolylogicError):
    pass


class AffinelyDependent(GeometryError):
    def __init__(self, vertices):
        self.vertices = tuple(vertices)
        super().__init__("affinely dependent vertex set: " + " ".join(self.vertices))


class BadCoordinate(GeometryError):
    def __init__(self, text):
        self.text = text
        super().__init__(f"not a rational number: {text!r}")


class DimensionMismatch(GeometryError):
    pass


class DuplicateVertex(GeometryError):
    pass


class OutsideSupport(GeometryError):
    def __init__(self, point):
        self.point = point
        super().__init__("point lies outside the support of the complex")


class UnknownSimplex(GeometryError):
    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown simplex: {name!r}")


class PolarityMismatch(PolylogicError):
    pass


class WrongDimension(PolylogicError):
    pass
