"""Exception types shared across the package."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class ContextMismatchError(EngineError):
    """Two operands live over different generator specs or rings."""


class NonUnitError(EngineError):
    """Series inversion was asked of an element with constant term != 1."""


class NotSymmetricError(EngineError):
    """A polynomial in root variables is not symmetric."""


class CancellationRequiredError(EngineError):
    """A Segre class of index -rank was requested on its own.

    That index is only meaningful multiplied by the matching top Chern class,
    and that product is -1; callers write it as a negation instead.
    """


class UnsupportedOperationError(EngineError):
    """The ring at hand does not support the requested operation."""


class RingFormatError(EngineError, ValueError):
    """A structure-constant ring description is malformed or inconsistent.

    Also a ``ValueError``, so callers that parse ring elements catch one
    error type for bad text whether or not it comes from a ring file.
    """
