"""Exception types shared across the package, and the text-file reader
that reports undecodable input as one of them."""

from pathlib import Path


class SvdnError(Exception):
    """Base class for all errors raised by this library."""


class ValidationError(SvdnError):
    """Malformed input: bad shapes, non-finite values, unknown config keys."""


class NumericError(SvdnError):
    """A numeric procedure failed: non-convergence, NaN loss, non-finite gradients."""


class DegeneracyError(SvdnError):
    """Input is rank-deficient or otherwise degenerate for the requested operation."""


def read_text(path) -> str:
    """The UTF-8 text of ``path`` with universal newlines (CRLF and CR
    read as LF); ValidationError naming ``path`` if it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
