"""Exception types shared across the package."""


class BlockparError(Exception):
    """Base class for all errors raised by blockpar."""


class ResourceCapError(BlockparError, RuntimeError):
    """A computation would exceed a configured resource cap.

    Raised instead of silently truncating when a schedule expands to too
    many substeps or a network is too large for exhaustive analysis.
    """


class CrossCheckError(BlockparError, RuntimeError):
    """Two independent computations of the same quantity disagreed.

    This always indicates an implementation bug, never bad input.
    """


class ScheduleFormatError(BlockparError, ValueError):
    """Malformed schedule: bad text, or o-blocks not covering each automaton once."""


class NetworkSyntaxError(BlockparError, ValueError):
    """Malformed network text, with a 1-based source position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None and column is not None:
            message = f"line {line}, column {column}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
