"""Exception types shared across the package.

The CLI maps these onto process exit codes: UsageError -> 1,
DataError -> 2, NumericError -> 3.
"""


class BotdetError(Exception):
    """Base class for errors raised by this package."""


class UsageError(BotdetError):
    """Invalid invocation: bad flags, inconsistent config, missing arguments."""


class DataError(BotdetError):
    """Unreadable, malformed, or mismatched input data or artifacts."""


class ParseError(DataError):
    """A single input row could not be parsed.

    Carries the source path and 1-based line number so lenient readers can
    count and report the offending rows.
    """

    def __init__(self, message: str, path: str = "", line_no: int = 0):
        super().__init__(message)
        self.path = path
        self.line_no = line_no


class NumericError(BotdetError):
    """Non-finite values where finite numbers are required.

    Training raises one when a loss or gradient goes non-finite, naming
    the epoch; nothing of the aborted run is kept.
    """
