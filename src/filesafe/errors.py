"""Exception types shared across the package."""


class FileSafeError(Exception):
    """Base class for every error this package raises deliberately."""


class ParseError(FileSafeError):
    """Rejected concrete syntax, tagged with the offending position."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class ModeError(ParseError):
    """A read form that does not belong to the selected dialect.

    At parse time this is one more rejection of the source text, so it
    carries a position and the CLI treats it as bad input.  Relaxing or
    embedding a program of the wrong dialect raises it without one.
    """


class NestedForkError(ParseError):
    """fork/forkfor/forkif inside a fork branch, or atomization of one."""


class MissingFileError(FileSafeError):
    """A program file with no backing store or status entry."""


class UnknownFileError(FileSafeError):
    """A file name outside the store's domain."""


class SpecError(FileSafeError):
    """A malformed filesystem spec document; names the offending key."""


class InvalidTraceError(FileSafeError):
    """A trace that does not replay under the step relation."""


class SearchBoundError(FileSafeError):
    """An enumeration helper ran into its bounds before finishing."""
