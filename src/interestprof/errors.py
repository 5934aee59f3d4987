"""Exception hierarchy.

The CLI maps ValidationFailure subclasses to exit status 1 and
ConfigError / ExternalClassifierError / OSError to exit status 2.
"""


class InterestProfError(Exception):
    """Base class for everything raised by this package."""


class ValidationFailure(InterestProfError):
    """Input data violates a documented contract."""


class TaxonomyError(ValidationFailure):
    """Taxonomy file cannot be parsed or validated."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", col {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class CycleError(TaxonomyError):
    """The is-a graph contains a cycle."""


class UnknownTopicError(ValidationFailure):
    """A topic name is not one of the canonical topics."""


class DataFormatError(ValidationFailure):
    """A prediction line, labels row or manifest row is malformed."""

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        self.line = line
        if line is not None:
            message = f"{path}:{line}: {message}" if path else f"line {line}: {message}"
        super().__init__(message)


class EmptyInputError(ValidationFailure):
    """An operation needs a nonempty input it did not get."""


class NoPredictionError(ValidationFailure):
    """A user vector carries no positive topic mass, so no topic can be predicted."""


class ConfigError(InterestProfError):
    """Bad configuration value, missing path, or unusable output directory."""


class ExternalClassifierError(InterestProfError):
    """External classifier command failed or produced unusable output."""

    def __init__(self, message: str, exit_code: int | None = None):
        self.exit_code = exit_code
        super().__init__(message)
