"""Exception taxonomy shared across the package.

Each class maps to one CLI exit code (see cli.main): parse errors,
precondition violations, exhausted search budgets and certification
failures are distinct, so callers never have to guess which contract
broke.
"""

import contextlib
import math


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


def magnitude(x) -> str:
    """A nonzero rational's order of magnitude, "-1e-3000": how a message
    names a value whose digits are too many to print."""
    exponent = math.log10(abs(x.numerator)) - math.log10(x.denominator)
    return f"{'-' if x < 0 else ''}1e{round(exponent)}"


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
