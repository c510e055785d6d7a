"""Exception types shared across the toolkit, the one reader of text
inputs, and the one rule for writing an output file whole.

Every failure a user can cause (a file that is missing or does not
decode, a malformed line, a value out of range, a corrupt checkpoint, a
diverging run) raises a :class:`SeqtagError`, and its class alone picks
the CLI's exit code: data problems (reading, parsing, tag validation,
checkpoint integrity) exit with 2, configuration problems with 3, and
numeric aborts during training with 4.  Any other exception is a fault
of the program and ends in a traceback.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import IO, Callable, Iterable, Iterator


class SeqtagError(Exception):
    """Base class for all toolkit errors."""


class DataError(SeqtagError):
    """Malformed or inconsistent input data."""


class ParseError(DataError):
    """A line of an input file could not be parsed."""

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{message} (in {path})"
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


def read_lines(path, *, config: bool = False, newline: str | None = None) -> Iterator[str]:
    """The lines of the UTF-8 text file ``path``, read as they are consumed.

    A leading byte-order mark is dropped.  A file that cannot be opened
    or read (a path with a NUL byte included), or that does not decode,
    raises :class:`DataError` naming it, or :class:`ConfigError` for a
    ``config`` (config or spec) file.
    ``newline`` is passed to :func:`open`; a CSV file reads with ``''``.
    """
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield from fh
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or UnicodeDecodeError
        if config:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        raise DataError(f"cannot read {path}: {exc}") from None


@contextmanager
def replacing(path, mode: str = "x", **kwargs) -> Iterator[IO]:
    """A new file opened to take the place of ``path``.

    It is ``<path>.<pid>.partial``, opened with ``mode`` (an exclusive
    create, ``"x"`` or ``"xb"``) and ``kwargs``, beside ``path``.  When the
    block ends it is renamed over ``path``; when the block raises, it is
    removed.  So ``path`` holds either its old bytes or all the new ones.
    """
    partial = f"{path}.{os.getpid()}.partial"
    try:
        with open(partial, mode, **kwargs) as fh:
            yield fh
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def check_fields(obj, rules: Iterable[tuple[tuple[str, ...], Callable, str]]):
    """Raise :class:`ConfigError`, naming the field, for the first field of
    ``obj`` whose value fails its rule; ``rules`` are (field names,
    predicate, description of the valid values) triples."""
    for keys, ok, rule in rules:
        for key in keys:
            if not ok(getattr(obj, key)):
                raise ConfigError(f"{key!r} must be {rule}, got {getattr(obj, key)!r}")
