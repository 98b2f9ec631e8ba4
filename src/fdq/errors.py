"""Exception hierarchy shared across the engine.

Everything user-facing derives from FdqError so the CLI can separate
expected failures (exit code 1) from genuine bugs (exit code 2).
"""


class FdqError(Exception):
    """Base class for all errors the engine raises on purpose."""


class SchemaError(FdqError):
    """Malformed schema: duplicate attribute names, empty input, bad kinds."""


class IngestError(FdqError):
    """A data file could not be read or written: a CSV (the message carries
    the offending line number) or a dependency-set file (it names the path)."""


class NameResolutionError(FdqError):
    """Reference to an attribute, table, or FD set that does not exist."""


class KindMismatchError(FdqError):
    """Comparison between values of incomparable kinds (text vs numeric)."""


class ContractError(FdqError):
    """An operation was invoked outside its documented contract."""


class ParameterError(FdqError):
    """A parameter value is outside its legal range."""


class UnsupportedOperationError(FdqError):
    """The operation is defined only for a narrower class of inputs."""


class ParseError(FdqError):
    """Syntax error in a statement; carries a 1-based column offset."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"col {pos}: {message}"
        super().__init__(message)
