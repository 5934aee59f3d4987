"""Exception hierarchy, and the rule for opening and checking input text.

The CLI maps ValidationFailure subclasses to exit status 1 and
ConfigError / ExternalClassifierError / OSError to exit status 2.
Messages are printed as one line each; ids, labels, names and values read
from input files go through ``escape_control`` before they are quoted in one.
An error in an input file's content is an InputError (TaxonomyError or
DataFormatError), whose message starts with the file and line it is at.

Every input file is opened through ``open_input``: a leading BOM is dropped,
and an undecodable byte is kept as a lone surrogate, which the parsers reject
through ``check_utf8`` with the line it is on. ``input_lines`` cuts a string
into the lines a file read gives, so both give the same line numbers.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Iterable, TextIO

# C0 controls, DEL and C1 controls, each spelled as its Python escape (\n, \x1b, \x9b).
_CONTROL_ESCAPES = {c: repr(chr(c))[1:-1] for c in (*range(0x20), *range(0x7F, 0xA0))}


def escape_control(text: str) -> str:
    """``text`` with every control character escaped, so quoting it cannot break a line."""
    return text.translate(_CONTROL_ESCAPES)


class InterestProfError(Exception):
    """Base class for everything raised by this package."""


class ValidationFailure(InterestProfError):
    """Input data violates a documented contract."""


class InputError(ValidationFailure):
    """Bad input file content at ``<path>:<line>[:<column>]`` (path escaped), or at
    ``line <line>[, col <column>]`` with no path; ``detail`` is the bare message."""

    def __init__(self, message: str, line: int | None = None, path: str | None = None,
                 column: int | None = None):
        self.line, self.column, self.detail = line, column, message
        if path is not None:
            place = [escape_control(path), *(str(n) for n in (line, column) if n is not None)]
            message = f"{':'.join(place)}: {message}"
        elif line is not None:
            col = f", col {column}" if column is not None else ""
            message = f"line {line}{col}: {message}"
        super().__init__(message)


class TaxonomyError(InputError):
    """Taxonomy file cannot be parsed or validated."""


class CycleError(TaxonomyError):
    """The is-a graph contains a cycle."""


class UnknownTopicError(ValidationFailure):
    """A topic name is not one of the canonical topics."""


class DataFormatError(InputError):
    """A prediction line, labels row or manifest row is malformed."""


class EmptyInputError(ValidationFailure):
    """An operation needs a nonempty input it did not get."""


class ConfigError(InterestProfError):
    """Bad configuration value, missing path, or unusable output directory."""


class ExternalClassifierError(InterestProfError):
    """External classifier command failed or produced unusable output."""


def open_input(path: str | Path, what: str, newline: str | None = None) -> TextIO:
    """Open an input file as text.

    A path that is missing, is a directory or may not be read is a ConfigError
    naming ``what``.

    A leading BOM is dropped. An undecodable byte becomes a lone surrogate,
    which ``check_utf8`` reports with its line. CSV files take ``newline=""``,
    so quoted newlines reach the csv module untranslated.
    """
    try:
        return open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline=newline)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {escape_control(str(path))}") from None
    except IsADirectoryError:
        raise ConfigError(f"{what} file is a directory: {escape_control(str(path))}") from None
    except PermissionError:
        raise ConfigError(
            f"{what} file cannot be read (permission denied): {escape_control(str(path))}"
        ) from None


def input_lines(source: str | Iterable[str]) -> Iterable[str]:
    """``source`` as lines: a string is cut where a file read cuts it, at ``\\n``,
    ``\\r\\n`` and ``\\r`` only (``str.splitlines`` also cuts at ``\\v``, ``\\f``,
    ``\\x1c``-``\\x1e``, ``\\x85``, ``\\u2028`` and ``\\u2029``)."""
    return io.StringIO(source, newline=None) if isinstance(source, str) else source


def check_utf8(text: str, what: str, no: int, path: str | None = None) -> None:
    """Reject text holding a lone surrogate: an undecodable byte or a ``\\ud800`` escape."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise DataFormatError(f"{what} is not valid UTF-8 text", line=no, path=path) from None
