"""The rules of the settings records, declared beside each field and
enforced by one check.

A field takes values of its default's type, or of its `default_factory`
class for a nested record, but never a bool: an int where an int is, and
an int or a float where a float is. An int in a float field stays an int,
so a config snapshot keeps its bytes. A field made by `setting` or
`positive` also declares the range its value must lie in.
`Settings.__post_init__` checks each field in turn: its type, that a float
is finite (no record has a use for nan or an infinity), its declared
range, and that an int is below 2**64 in magnitude, so a snapshot can
write it. A message starts with the field's name and never shows the
value, which, as an int of more than 4300 digits, may have no str.
"""

from __future__ import annotations

import dataclasses
import math

# Range edges a rule writes as the README does.
_EDGE_TEXT = {2**64: "2**64", 2**-64: "2**-64"}


class ConfigError(ValueError):
    """A config's text, key or value, or a terrain's seed or size, that the
    program cannot take."""


def setting(default, low, high=None, *, open_low: bool = False,
            open_high: bool = False):
    """A field with `default` whose value lies in [low, high], an edge left
    out where its `open_` flag is set; no `high` means no upper edge."""
    if high is not None:
        low_text, high_text = (_EDGE_TEXT.get(edge, edge) for edge in (low, high))
        rule = f"lie in {'[('[open_low]}{low_text}, {high_text}{'])'[open_high]}"
    elif low == 0:
        rule = "be positive" if open_low else "be non-negative"
    else:
        rule = f"be {'above' if open_low else 'at least'} {low}"
    return dataclasses.field(default=default, metadata={
        "range": (low, high, open_low, open_high), "rule": rule})


def copied(record, name: str):
    """A field with the default and rule of `record`'s field `name`."""
    f = record.__dataclass_fields__[name]
    return dataclasses.field(default=f.default, metadata=f.metadata)


def positive(default):
    """A field with `default` whose value must be above zero."""
    return setting(default, 0, open_low=True)


def _in_range(value, low, high, open_low: bool, open_high: bool) -> bool:
    return ((value > low if open_low else value >= low)
            and (high is None or (value < high if open_high else value <= high)))


class Settings:
    """The base of the settings records: construction checks every field
    against the rules it declares."""

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            kind = (f.default_factory if f.default is dataclasses.MISSING
                    else type(f.default))
            value = getattr(self, f.name)
            if (isinstance(value, bool) or not isinstance(
                    value, (int, float) if kind is float else kind)):
                raise ConfigError(f"{f.name}: expected {kind.__name__}, "
                                  f"got {type(value).__name__}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite")
            if "range" in f.metadata and not _in_range(value, *f.metadata["range"]):
                raise ConfigError(f"{f.name} must {f.metadata['rule']}")
            if isinstance(value, int) and abs(value) >= 2**64:
                raise ConfigError(f"{f.name} must be "
                                  f"{'below 2**64' if value > 0 else 'above -2**64'}")
