"""Shared exception types.

The CLI maps these onto exit codes: parse errors -> 2, precondition
violations -> 3, cap exhaustion -> 4, failed exact re-verification -> 5.
"""


class OrbitopError(Exception):
    """Base class for all errors raised by this package."""


class ScenarioParseError(OrbitopError):
    """A scenario or config file could not be parsed."""


class PreconditionError(OrbitopError):
    """An operation was invoked on input violating its contract."""


class CapExceededError(OrbitopError):
    """A configured size cap (closure, enumeration, matrix size) was hit."""


class VerificationError(OrbitopError):
    """An exact re-verification of a computed result failed.

    Raised by explicit checks rather than `assert`, so it also fires
    under `python -O`.
    """


class FieldDivisionError(PreconditionError):
    """Division by zero in an exact field."""
