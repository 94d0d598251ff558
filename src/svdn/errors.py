"""Exception types shared across the package, the text decoder and reader
that report undecodable input as one of them, ``open_private`` for a file
only its owner may write, and the one way the package writes a file:
``open_artifact``, all or nothing, with the package's one ``csv.writer``
set-up, ``write_csv``, on top of it."""

import csv
import os
import stat
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


def decode_text(raw: bytes, path) -> str:
    """``raw``, the bytes of ``path``, as UTF-8 text with universal newlines
    (CRLF and CR read as LF); ValidationError naming ``path`` if it is not UTF-8."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_text(path) -> str:
    """The text of ``path`` as :func:`decode_text` gives it."""
    return decode_text(Path(path).read_bytes(), path)


def open_private(path, owner: int):
    """``path`` opened for binary reading if it is a regular file owned by
    the current user or by ``owner`` and writable by no one else.  A link
    is not followed nor a FIFO waited on: anything else there raises
    PermissionError, or the OSError of the open."""
    fd = os.open(path, os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
    try:
        st = os.fstat(fd)
        if stat.S_ISREG(st.st_mode) and st.st_uid in (os.geteuid(), owner) and not st.st_mode & 0o022:
            return open(fd, "rb")
    except BaseException:
        os.close(fd)
        raise
    os.close(fd)
    raise PermissionError(f"{path}: not a regular file of this user or {owner} that only its owner may write")


@contextmanager
def open_artifact(path, mode: str = "w"):
    """Open ``path`` for writing, all or nothing: the handle writes the
    hidden sibling ``.{name}.{pid}.tmp``, which replaces ``path`` when the
    block exits cleanly and is deleted when it raises (any exception,
    interrupts included).  ``mode`` is ``"w"`` (UTF-8 text, newlines
    written as given) or ``"wb"``.  The sibling is created anew, so a file
    or link already under its name is never written through.  No fsync:
    this guards against a failing process, not against power loss."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    text = {"encoding": "utf-8", "newline": ""} if mode == "w" else {}
    try:
        with open(tmp, mode.replace("w", "x"), **text) as fh:
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
