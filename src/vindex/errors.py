"""Exception types shared across the package."""

from __future__ import annotations


class VindexError(Exception):
    """Base class for every error this package raises on bad input.

    An error about one place in an input writes it in the message only,
    before the rest: ``[source, ]line N: ``.
    """


class DomainError(VindexError, ValueError):
    """Input values violate an operation's domain (sc > c, negative counts, ...)."""


class CorpusParseError(VindexError, ValueError):
    """A corpus or aggregate file could not be parsed."""


class CorpusIntegrityError(VindexError, ValueError):
    """The input parsed but breaks a structural rule (duplicate ids, ...)."""
