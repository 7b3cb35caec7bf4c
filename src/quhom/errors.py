"""Exception types shared across the package."""


class QuhomError(Exception):
    """Base class for errors raised by this package."""


class ParseError(QuhomError):
    """An input file could not be decoded: bytes that are not UTF-8, or JSON nested too deep."""


class SchemaError(QuhomError):
    """A document parsed as JSON but does not match the expected schema."""


class BudgetExceeded(QuhomError):
    """A search or enumeration exceeded its configured budget or cap."""

    def __init__(self, message: str, examined: int | None = None):
        super().__init__(message)
        self.examined = examined


class ScalarViolation(QuhomError):
    """The generated group contains a nontrivial scalar, so the code space is {0}."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class TheoremMismatch(QuhomError):
    """Two routes that are proven equal disagreed; indicates an implementation bug."""
