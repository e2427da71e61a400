"""Exception taxonomy shared across the package.

Each class maps to one CLI exit code (see cli.main): parse errors,
precondition violations, exhausted search budgets and certification
failures are distinct, so callers never have to guess which contract
broke.
"""

import contextlib


class CubefamError(Exception):
    """Base class for all package-specific errors."""


class ParseError(CubefamError, ValueError):
    """A family/poset/report file or literal does not parse."""


class PreconditionError(CubefamError, ValueError):
    """An operation was called outside its stated domain."""


class SearchBudgetExceeded(CubefamError, RuntimeError):
    """A backtracking search hit its node budget before completing.

    Deliberately distinct from "absent": the search result is unknown.
    """

    def __init__(self, message, nodes=None):
        super().__init__(message)
        self.nodes = nodes


class CertificationError(CubefamError, AssertionError):
    """An internally produced object failed its own re-verification.

    This always indicates an implementation bug, never a data error, and
    therefore derives from AssertionError on purpose.
    """


@contextlib.contextmanager
def open_text(path, encoding: str, what: str):
    """``path`` opened for reading text; a path that cannot be opened, or a
    byte the codec rejects, is a ParseError."""
    try:
        fh = open(path, "r", encoding=encoding)
    except OSError as exc:
        raise ParseError(str(exc)) from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{what} is not {encoding} text: byte {exc.object[exc.start]:#04x}"
                f" ({exc.reason})"
            ) from None
