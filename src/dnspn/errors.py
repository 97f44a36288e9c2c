"""Exception taxonomy shared across the package.

Each class marks one failure family so callers (and the CLI's exit-code
mapping) can react by category instead of parsing message text.
"""

from contextlib import contextmanager


class DnspnError(Exception):
    """Base class for all package errors."""


class ShapeError(DnspnError):
    """Operands have incompatible or unexpected dimensions."""


class ParameterError(DnspnError):
    """An argument value is outside the operation's domain."""


class UsageError(DnspnError):
    """An object of the wrong kind or mode was passed to an operation."""


class DataError(DnspnError):
    """Dataset contents or dataset files are invalid."""


class NumericError(DnspnError):
    """A computation produced non-finite values."""


class MetricError(DnspnError):
    """A metric is undefined for the given inputs."""


@contextmanager
def reading(path, what: str):
    """Report a failure to read `path` (a directory, no permission, bytes
    that are not UTF-8) as a DataError that names the file."""
    try:
        yield
    except OSError as exc:
        raise DataError(
            f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot read {what} {path}: not UTF-8 text") from exc
