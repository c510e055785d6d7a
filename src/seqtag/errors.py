"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes: data problems (parsing,
tag validation, checkpoint integrity) exit with 2, configuration
problems with 3, and numeric aborts during training with 4.
"""


class SeqtagError(Exception):
    """Base class for all toolkit errors."""


class DataError(SeqtagError):
    """Malformed or inconsistent input data."""


class ParseError(DataError):
    """A line of an input file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TagValidationError(DataError):
    """A tag is outside the configured tag scheme or violates BIO structure."""


class IntegrityError(DataError):
    """A checkpoint file is truncated, corrupt, or has a bad checksum."""


class UnsupportedVersionError(DataError):
    """A checkpoint was written by an incompatible format version."""


class ConfigError(SeqtagError):
    """Invalid configuration key, value, or file."""


class NumericError(SeqtagError):
    """Training produced a non-finite loss or parameter and was aborted."""
