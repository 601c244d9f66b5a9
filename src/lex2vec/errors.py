"""Exception types shared across the package."""

from __future__ import annotations


class Lex2vecError(Exception):
    """Base class for every error raised by this package."""


class LineError(Lex2vecError):
    """Error tied to a specific 1-based line of an input file."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class MalformedLineError(LineError):
    """An embedding line has the wrong token count or an unparseable number."""


class DimensionMismatchError(LineError):
    """Vector width disagrees with the declared or inferred dimension count."""


class EmptyInputError(Lex2vecError):
    """The input contains no data lines."""


class NonFiniteValueError(LineError):
    """An embedding value is NaN or infinite (or overflows to infinity)."""


class MalformedLexiconLineError(LineError):
    """A lexicon line violates its format."""


class UnknownCategoryIdError(MalformedLexiconLineError):
    """A dictionary body line references a category id missing from the header."""


class MissingDelimiterError(LineError):
    """A LIWC-style dictionary lacks the '%' section delimiters."""


class NoNamedDimensionsError(Lex2vecError):
    """A named-dimensions average was requested on a fully unnamed labeling."""
