"""The type and finiteness check the settings records share.

A field takes values of its default's type: a bool only where a bool is
due, an int but not a bool where an int is, and an int or a float where a
float is. An int in a float field stays an int, so a config snapshot keeps
its bytes. A float value must be finite: no record has a use for nan or
an infinity.
"""

from __future__ import annotations

import dataclasses
import math

_ACCEPTED = {bool: (bool,), int: (int,), float: (int, float)}


def check_field_types(record, error: type[Exception]) -> None:
    """Raise `error` naming the first field of a settings record whose value
    its default's type does not take, or that is a nan or infinite float."""
    for f in dataclasses.fields(record):
        default = (f.default_factory() if f.default is dataclasses.MISSING
                   else f.default)
        value, kind = getattr(record, f.name), type(default)
        if (isinstance(value, bool) != (kind is bool)
                or not isinstance(value, _ACCEPTED.get(kind, kind))):
            raise error(f"{f.name}: expected {kind.__name__}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{f.name} must be finite, got {value!r}")
