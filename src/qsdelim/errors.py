"""Exception types shared across the library."""


class QsdelimError(Exception):
    """Base class for all library-specific failures."""


class NonFiniteEntries(ValueError):
    """An operator would hold a NaN or infinite entry."""


class StructuralViolation(QsdelimError):
    """An operator does not have the block structure required of it."""


class SingularFastDynamics(QsdelimError):
    """The fast generator is not invertible off the slow subspace."""


class PreconditionFailed(QsdelimError):
    """A validator precondition failed; carries the offending report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ModelParseError(QsdelimError):
    """A model file could not be parsed into a complete model."""
