"""Flat key-value run configuration shared by the trainer and the CLI.

The file format is one ``key = value`` pair per line; blank lines and
lines starting with ``#`` are ignored.  The keys are the ``RriSchedule``
field names followed by the other ``RunConfig`` fields; ``PARSERS`` maps
each key to the parser of its text value, and the config file, the
overrides, ``RunConfig.to_dict`` and the CLI flags all go through it.
Unknown keys and keys given twice are rejected by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .errors import ValidationError, read_text
from .network import DEFAULT_FEATURE, FEATURE_KINDS
from .trainer import DEFAULT_EIGEN_DIM, DEFAULT_HIDDEN_DIMS, RriSchedule


@dataclass
class RunConfig:
    schedule: RriSchedule = field(default_factory=RriSchedule)
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN_DIMS
    eigen_dim: int = DEFAULT_EIGEN_DIM
    feature: str = DEFAULT_FEATURE
    dataset: str | None = None

    def validate(self) -> "RunConfig":
        self.schedule.validate()
        if self.eigen_dim < 1 or any(d < 1 for d in self.hidden_dims):
            raise ValidationError("hidden_dims and eigen_dim must all be >= 1")
        if self.feature not in FEATURE_KINDS:
            raise ValidationError(f"config key 'feature': expected one of {FEATURE_KINDS}, got {self.feature!r}")
        return self

    def to_dict(self) -> dict:
        return {key: getattr(self.schedule if key in _SCHEDULE_KEYS else self, key) for key in CONFIG_KEYS}


def _scalar(kind, expected: str):
    def parse(key: str, value: str):
        try:
            return kind(value)
        except ValueError:
            raise ValidationError(f"config key {key!r}: expected {expected}, got {value!r}") from None
    return parse


def parse_dims(key: str, value: str, kind: str = "config key") -> tuple[int, ...]:
    """Comma-separated layer widths, such as ``128,64``; errors name the ``kind`` ``key``."""
    try:
        dims = tuple(int(part.strip()) for part in value.split(",") if part.strip())
    except ValueError:
        raise ValidationError(f"{kind} {key!r}: expected comma-separated integers, got {value!r}") from None
    if not dims:
        raise ValidationError(f"{kind} {key!r}: expected at least one dimension")
    return dims


_PARSE_BY_TYPE = {int: _scalar(int, "an integer"), float: _scalar(float, "a number"), str: _scalar(str, "text")}
_SCHEDULE_KEYS = frozenset(f.name for f in fields(RriSchedule))

# Config key -> parser of its text value.  A schedule key's value type is
# the type of its RriSchedule field default.
PARSERS = {
    **{f.name: _PARSE_BY_TYPE[type(f.default)] for f in fields(RriSchedule)},
    "hidden_dims": parse_dims,
    "eigen_dim": _PARSE_BY_TYPE[int],
    "feature": _PARSE_BY_TYPE[str],
    "dataset": _PARSE_BY_TYPE[str],
}
CONFIG_KEYS = tuple(PARSERS)


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
    schedule_kwargs = {}
    top = {}
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in PARSERS:
            raise ValidationError(f"unknown config key {key!r}")
        (schedule_kwargs if key in _SCHEDULE_KEYS else top)[key] = value
    return replace(cfg, schedule=replace(cfg.schedule, **schedule_kwargs), **top).validate()
