"""Exception types shared across the package, the text-file reader that
reports undecodable input as one of them, and the one way the package
writes a file: ``open_artifact``, all or nothing, with the package's one
``csv.writer`` set-up, ``write_csv``, on top of it."""

import csv
import os
from contextlib import contextmanager
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


@contextmanager
def open_artifact(path, mode: str = "w"):
    """Open ``path`` for writing, all or nothing: the handle writes the
    hidden sibling ``.{name}.{pid}.tmp``, which replaces ``path`` when the
    block exits cleanly and is deleted when it raises (any exception,
    interrupts included).  ``mode`` is ``"w"`` (UTF-8 text, newlines
    written as given) or ``"wb"``.  No fsync: this guards against a
    failing process, not against power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text = {"encoding": "utf-8", "newline": ""} if mode == "w" else {}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then each of ``rows`` as LF-terminated CSV.  A float
    cell (numpy float64 too) is written as the float's ``repr``, which reads
    back bit for bit, so callers pass floats as they are."""
    with open_artifact(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
