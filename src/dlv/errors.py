"""Exception types shared across the package.

Every error raised on purpose derives from :class:`DivisorLatticeError`:
:class:`MismatchedModel` for a class used on another model,
:class:`InvalidModel` for a model that cannot be built,
:class:`InvalidParameter` for an argument an operation does not accept,
:class:`SchemaViolation` for a document that breaks ``REPORT_SCHEMA``, and
``dlv.expr.ExprError`` for an expression that does not parse or evaluate;
the CLI exits 1 on each of them except :class:`SchemaViolation` (exit 2).
"""


class DivisorLatticeError(Exception):
    """Base class for all deliberate errors raised by this package."""


class MismatchedModel(DivisorLatticeError):
    """A divisor class was used with a surface model it does not belong to."""


class InvalidModel(DivisorLatticeError):
    """A surface model violates a structural invariant (asymmetric Gram,
    wrong vector length, negative curve on an abelian model, ...)."""


class InvalidParameter(DivisorLatticeError):
    """An operation does not accept an argument: a number out of range
    (e.g. even n), an unknown label, a morphism or surface of the wrong
    kind, a class of the wrong shape, or an enumeration too large to run."""


class SchemaViolation(DivisorLatticeError):
    """A JSON document does not match ``REPORT_SCHEMA``.

    ``path`` holds the keys and indices from the document root to the
    offending value; the message names it as a JSON path such as
    ``$.reports[2].instances[0].status``.
    """

    def __init__(self, message: str, path: tuple = ()):
        super().__init__(message)
        self.path = path
