"""Shared exception types. Everything a CLI run reports as a data error derives
from DataError, so the command layer can map them to one exit code."""


class DataError(Exception):
    """Problem with user-supplied data or files (exit code 2 at the CLI)."""


class CuptParseError(DataError):
    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class CuptWriteError(DataError):
    pass


class VecLoadError(DataError):
    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ModelFormatError(DataError):
    pass


class EvaluationError(DataError):
    pass


class TrainingDataError(DataError):
    pass


class NonFiniteError(DataError):
    """Scores or an objective value that overflowed or became NaN, usually
    from huge or non-finite input vectors."""


def not_utf8(path, exc: UnicodeDecodeError) -> str:
    """How a reader names a file that does not decode as UTF-8."""
    return f"{path} is not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: {exc.reason})"


class UsageError(Exception):
    """Bad or missing command-line flags; callers map this to exit code 1
    where data problems map to 2."""
