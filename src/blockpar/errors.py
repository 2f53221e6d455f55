"""Exception types and the immutable record base shared across the package."""

from operator import attrgetter


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


class Record:
    """An immutable record whose fields are the slots named in ``_fields``.

    The constructor takes the fields in order, by position or by name.  Two
    records are equal when they have the same type and equal fields; hashing,
    ``repr`` and pickling read the same fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # The fields read in one C call: the key of equality and hashing.
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *values, **named):
        fields = self._fields
        if named and sorted(named) == sorted(fields[len(values):]):
            values += tuple(named[field] for field in fields[len(values):])
        elif named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        for field, value in zip(fields, values):
            object.__setattr__(self, field, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot change {name!r} of an immutable {type(self).__name__}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return (type(self), tuple(getattr(self, field) for field in self._fields))
