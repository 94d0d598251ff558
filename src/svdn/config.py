"""Flat key-value run configuration shared by the trainer and the CLI.

The file format is one ``key = value`` pair per line; blank lines and
lines starting with ``#`` are ignored.  The keys are the ``RunConfig``
field names: the ``RriSchedule`` fields, then ``dataset``.  ``PARSERS``
maps each key to the parser of its text value, picked by the type of its
default (``parsers``, as for ``gen``'s flags); the config file and the
CLI flags go through it.  Unknown and repeated keys are rejected by name.
A number's text is ASCII (``_int``, ``_real``): no underscore, leading "+" or other digits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, replace

from .errors import ValidationError, read_text
from .trainer import RriSchedule


@dataclass(frozen=True)
class RunConfig(RriSchedule):
    dataset: str | None = None


def _text_rule(pattern: str, convert):
    """``convert`` of text that ``pattern`` matches whole (ASCII, any letter case), else ValueError."""
    rule = re.compile(pattern, re.ASCII | re.IGNORECASE)

    def parse(text: str):
        if not rule.fullmatch(text):
            raise ValueError(text)
        return convert(text)
    return parse


# ASCII digits after an optional "-": not the underscores, "+" or non-ASCII digits int() and float() take
_int = _text_rule(r"\s*-?\d+\s*", int)
_real = _text_rule(r"\s*-?((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)\s*", float)


def _scalar(convert, expected: str):
    def parse(key: str, value: str, kind: str = "config key"):
        try:
            return convert(value)
        except ValueError:
            raise ValidationError(f"{kind} {key!r}: expected {expected}, got {value!r}") from None
    return parse


def _widths(text: str) -> tuple[int, ...]:
    """Comma-separated layer widths, such as ``128,64``, or none for empty
    text; an empty item, as in ``4,,8``, is malformed (ValueError)."""
    return tuple(_int(part) for part in text.split(",")) if text.strip() else ()


parse_dims = _scalar(_widths, "comma-separated integers")
_TEXT = _scalar(str, "text")
_PARSE_BY_TYPE = {
    int: _scalar(_int, "an integer"), float: _scalar(_real, "a number"), tuple: parse_dims, str: _TEXT, type(None): _TEXT
}


def parsers(defaults: dict) -> dict:
    """Setting name -> parser of its text, ``parse(name, text, kind)``, chosen by the type of its default."""
    return {name: _PARSE_BY_TYPE[type(default)] for name, default in defaults.items()}


PARSERS = parsers({f.name: f.default for f in fields(RunConfig)})  # config key -> parser of its text value
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
