"""Exception types shared across the package."""

from __future__ import annotations


class VindexError(Exception):
    """Base class for every error this package raises on bad input.

    An error about one place in an input carries it as ``line`` and
    ``source`` and writes it before the message: ``[source, ]line N: ``.
    """

    def __init__(self, message: str, *, line: int | None = None, source: str | None = None):
        self.line = line
        self.source = source
        parts = []
        if source:
            parts.append(source)
        if line is not None:
            parts.append(f"line {line}")
        prefix = ", ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)


class DomainError(VindexError, ValueError):
    """Input values violate an operation's domain (sc > c, negative counts, ...)."""


class CorpusParseError(VindexError, ValueError):
    """A corpus or aggregate stream could not be parsed."""


class CorpusIntegrityError(VindexError, ValueError):
    """The input parsed but breaks a structural rule (duplicate ids, ...)."""
