"""Flat key-value run configuration shared by the trainer and the CLI.

The file format is one ``key = value`` pair per line; blank lines and
lines starting with ``#`` are ignored.  The keys are the ``RunConfig``
field names: the ``RriSchedule`` fields, then ``dataset``.  ``PARSERS``
maps each key to the parser of its text value, and the config file, the
overrides and the CLI flags all go through it.  Unknown keys and keys
given twice are rejected by name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace

from .errors import ValidationError, read_text
from .trainer import RriSchedule


@dataclass(frozen=True)
class RunConfig(RriSchedule):
    dataset: str | None = None


_INT_TEXT = re.compile(r"\s*-?\d+\s*", re.ASCII)  # not the underscores, "+" or non-ASCII digits int() takes


def _int(text: str) -> int:
    if not _INT_TEXT.fullmatch(text):
        raise ValueError(text)
    return int(text)


def _scalar(kind, expected: str):
    def parse(key: str, value: str):
        try:
            return kind(value)
        except ValueError:
            raise ValidationError(f"config key {key!r}: expected {expected}, got {value!r}") from None
    return parse


def parse_dims(key: str, value: str, kind: str = "config key") -> tuple[int, ...]:
    """Comma-separated layer widths, such as ``128,64``, or none for empty
    text; an empty item, as in ``4,,8``, is malformed.  Errors name the
    ``kind`` ``key``."""
    try:
        return tuple(_int(part) for part in value.split(",")) if value.strip() else ()
    except ValueError:
        raise ValidationError(f"{kind} {key!r}: expected comma-separated integers, got {value!r}") from None


_TEXT = _scalar(str, "text")
_PARSE_BY_TYPE = {
    int: _scalar(_int, "an integer"), float: _scalar(float, "a number"), tuple: parse_dims, str: _TEXT, type(None): _TEXT
}

# Config key -> parser of its text value, chosen by the type of the field's default.
PARSERS = {f.name: _PARSE_BY_TYPE[type(f.default)] for f in fields(RunConfig)}
CONFIG_KEYS = tuple(PARSERS)
# The keys each command reads: its flags and its manifest's config.  ``train`` and ``compare`` read them all.
SWEEP_KEYS = tuple(key for key in CONFIG_KEYS if key != "eigen_dim")  # every swept width replaces eigen_dim
SCORE_KEYS = ("dataset", "feature", "seed")  # eval and diagnose score a checkpoint they are given


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse config text into a RunConfig; unknown or repeated keys and
    malformed values raise ValidationError naming the key."""
    values: dict = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in PARSERS:
            raise ValidationError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ValidationError(f"{source}:{lineno}: config key {key!r} already given on line {first_line[key]}")
        first_line[key] = lineno
        values[key] = PARSERS[key](key, value)
    return override_config(RunConfig(), **values)


def load_config(path) -> RunConfig:
    return parse_config(read_text(path), source=str(path))


def override_config(cfg: RunConfig, **overrides) -> RunConfig:
    """Apply non-None overrides keyed by config key name (flag > file)."""
    given = {key: value for key, value in overrides.items() if value is not None}
    for key in given:
        if key not in PARSERS:
            raise ValidationError(f"unknown config key {key!r}")
    return replace(cfg, **given)
