"""Exception hierarchy shared by the whole package.

Every error raised deliberately by this package derives from
IndkernelError, so callers (the CLI in particular) can distinguish
bad input from bugs with a single except clause.
"""

from __future__ import annotations


class IndkernelError(Exception):
    """Base class for all errors raised on purpose by this package."""


class DuplicateName(IndkernelError):
    """A name was declared twice where names must be distinct.

    Carries a source position when raised by the rule-file parser.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class UnknownElement(IndkernelError):
    """A name was used that the relevant carrier does not contain."""


class CodomainMismatch(IndkernelError):
    """Two maps were combined whose endpoints do not line up."""


class ArityMismatch(IndkernelError):
    """A tree node was built with the wrong children for its label."""


class EmptyWType(IndkernelError):
    """The tree type has no nullary label, so it has no inhabitants."""


class NotASurjection(IndkernelError):
    """A map required to be onto misses part of its codomain."""


class EmptyFamily(IndkernelError):
    """A family that must contain at least one member is empty."""


class NoFactorization(IndkernelError):
    """No member of the family factors through the given surjection."""


class InvalidSquare(IndkernelError):
    """The four maps of a square do not commute."""


class InvalidValue(IndkernelError, ValueError):
    """A value is outside what an operation accepts: a search bound
    below its minimum, or a file that is not UTF-8 text."""


class SchemaError(IndkernelError):
    """A JSON document does not have the expected shape."""


class DslError(IndkernelError):
    """Base class for positioned rule-file syntax and scope errors."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ParseError(DslError):
    """A line of a rule file does not match the grammar."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        if expected:
            message = f"{message} (expected {' or '.join(expected)})"
        super().__init__(message, line, column)
        self.expected = expected


class UndeclaredName(DslError):
    """A rule, seed, or goal mentions a name no set line declared."""
