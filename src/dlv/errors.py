"""Exception types shared across the package.

Every error raised on purpose derives from :class:`DivisorLatticeError`,
so callers (and the CLI) can distinguish domain errors from bugs.
"""


class DivisorLatticeError(Exception):
    """Base class for all deliberate errors raised by this package."""


class MismatchedModel(DivisorLatticeError):
    """A divisor class was used with a surface model it does not belong to."""


class InvalidModel(DivisorLatticeError):
    """A surface model violates a structural invariant (asymmetric Gram,
    wrong vector length, negative curve on an abelian model, ...)."""


class InvalidParameter(DivisorLatticeError):
    """A numeric parameter is outside its allowed range (e.g. even n)."""


class UnknownCurve(DivisorLatticeError):
    """A label does not name a registered curve of the model."""


class ArityMismatch(DivisorLatticeError):
    """A multiplicity list does not match the number of exceptional classes."""


class NotABlowup(DivisorLatticeError):
    """The morphism is not a blow-up map."""


class NotACover(DivisorLatticeError):
    """The morphism is not a cyclic-cover map."""


class NotAStrictTransformShape(DivisorLatticeError):
    """A class on a blow-up is not of the form pullback minus a
    non-negative combination of exceptional classes."""


class WrongSurfaceKind(DivisorLatticeError):
    """An operation requires a specific surface kind (e.g. abelian)."""


class SchemaViolation(DivisorLatticeError):
    """A JSON document does not match ``REPORT_SCHEMA``.

    ``path`` holds the keys and indices from the document root to the
    offending value; the message names it as a JSON path such as
    ``$.reports[2].instances[0].status``.
    """

    def __init__(self, message: str, path: tuple = ()):
        super().__init__(message)
        self.path = path


class BoundTooLarge(DivisorLatticeError):
    """An exhaustive enumeration grid would exceed the configured cap."""


class RegistryTooLarge(DivisorLatticeError):
    """The curve registry is too large for exhaustive order enumeration."""
