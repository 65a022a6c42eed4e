"""Exception types shared across the package."""


class PermpolyError(Exception):
    """Base class for all library-specific errors."""


class NotPrime(PermpolyError):
    """Requested characteristic is not a prime number."""


class ReducibleModulus(PermpolyError):
    """Supplied or derived modulus is not irreducible over GF(p)."""


class SizeLimitExceeded(PermpolyError):
    """Field order exceeds the configured exhaustive-sweep limit."""


class CtxMismatch(PermpolyError):
    """Operands belong to different field contexts."""


class DivisionByZero(PermpolyError, ZeroDivisionError):
    """Division or inversion of the zero element."""


class DegreeMismatch(PermpolyError):
    """Subfield/extension degree arguments are inconsistent."""


class NotADivisor(PermpolyError):
    """Requested subgroup order does not divide the group order."""


class HypothesisUnmet(PermpolyError):
    """A solver's standing hypothesis fails for the given inputs."""


class ZeroCoefficient(PermpolyError):
    """A coefficient that must be nonzero is zero."""


class SchemaMismatch(PermpolyError):
    """Parameters do not match a family's declared schema."""


class FieldShapeMismatch(PermpolyError):
    """Field shape parameters are invalid for the requested family."""


class EnumerationTooLarge(PermpolyError):
    """Parameter enumeration would exceed the configured cap."""


class NotFactorable(PermpolyError):
    """Polynomial exponents are not congruent modulo the requested step."""


class BadDegrees(PermpolyError):
    """Transform degree parameters are out of range."""


class BadSubfieldConstant(PermpolyError):
    """Transform constant does not lie in the required subfield."""


class BadSubset(PermpolyError):
    """A subset to check repeats a rep or holds one outside [0, order)."""


class ImageOutOfRange(PermpolyError):
    """A map returned a rep outside [0, order) of the field it is scanned on."""

    def __init__(self, x: int, y: int, order: int):
        super().__init__(f"f({x}) = {y} lies outside [0, {order})")
        self.x = x
        self.y = y
