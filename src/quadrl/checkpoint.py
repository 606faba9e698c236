"""Versioned JSON checkpoints of one actor, with exact 64-bit round trips.

Parameter arrays are stored as base64 of their little-endian float64
bytes, so save/load reproduces every bit. Network specs are stored as
[input_size, output_size, activation, bound] rows per layer. Both sit
under the name "actor"; a load ignores any other name, such as the
critics that older files hold. The config snapshot uses the flat
dotted-key dictionary from the config module; the document's
"algorithm" repeats the config's, and a load rejects a document where
the two differ.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig, config_from_dict, config_to_dict
from .net import LayerSpec, NetworkSpec, ParamVector
from .trace import span

FORMAT_VERSION = 1
# Settings a snapshot may hold from before they were retired. No evaluation
# reads either, and an actor's spec keeps the bound it was built with.
_RETIRED_KEYS = ("record_wall_time", "rl.action_bound")


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    """An actor, its config and progress."""

    actor: ParamVector
    config: RunConfig
    progress: dict = field(default_factory=dict)


def _encode_spec(spec: NetworkSpec) -> list:
    return [[layer.input_size, layer.output_size, layer.activation, layer.bound]
            for layer in spec.layers]


def _decode_layer(row) -> LayerSpec:
    # JSON already types each field, so a row is checked, not coerced: a
    # size of 8.9 is not read as 8, nor a bound of "0.7" as 0.7.
    input_size, output_size, activation, bound = row
    if not (type(input_size) is int and type(output_size) is int
            and type(activation) is str and type(bound) in (int, float)
            and math.isfinite(bound)):
        raise ValueError(f"layer {row!r} needs integer sizes, an activation "
                         "name and a finite bound")
    return LayerSpec(input_size, output_size, activation, float(bound))


def _decode_spec(rows, name: str) -> NetworkSpec:
    try:
        return NetworkSpec(tuple(_decode_layer(row) for row in rows))
    except (ValueError, TypeError) as exc:
        raise CheckpointError(f"invalid network spec for {name!r}: {exc}") from None


def _encode_params(values: np.ndarray) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _decode_params(text: str, name: str) -> np.ndarray:
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:
        raise CheckpointError(f"invalid base64 parameters for {name!r}: {exc}") from None
    if len(raw) % 8:
        raise CheckpointError(f"parameter byte length for {name!r} is not float64")
    values = np.frombuffer(raw, dtype="<f8")
    if not np.isfinite(values).all():
        raise CheckpointError(f"non-finite parameters for {name!r}")
    return values


@span
def save_checkpoint(ck: Checkpoint, path: str) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "algorithm": ck.config.algorithm,
        "specs": {"actor": _encode_spec(ck.actor.spec)},
        "params": {"actor": _encode_params(ck.actor.values)},
        "config": config_to_dict(ck.config),
        "progress": ck.progress,
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_checkpoint(path: str) -> Checkpoint:
    try:
        with open(path, encoding="ascii") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"malformed checkpoint document: {exc}") from None
    if not isinstance(doc, dict):
        raise CheckpointError("malformed checkpoint document: not an object")
    missing = [k for k in ("format_version", "algorithm", "specs", "params",
                           "config", "progress") if k not in doc]
    if missing:
        raise CheckpointError(f"checkpoint missing keys: {', '.join(missing)}")
    not_objects = [k for k in ("specs", "params", "config", "progress")
                   if not isinstance(doc[k], dict)]
    if not_objects:
        raise CheckpointError(f"checkpoint fields are not JSON objects: "
                              f"{', '.join(not_objects)}")
    version = doc["format_version"]
    if type(version) is not int or version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format_version {version!r}")
    try:
        config = config_from_dict({k: v for k, v in doc["config"].items()
                                   if k not in _RETIRED_KEYS})
    except ValueError as exc:
        raise CheckpointError(f"invalid config snapshot: {exc}") from None
    if doc["algorithm"] != config.algorithm:
        raise CheckpointError(f"algorithm {doc['algorithm']!r} does not match "
                              f"the config's {config.algorithm!r}")
    if set(doc["specs"]) != set(doc["params"]):
        raise CheckpointError("specs and params name different networks")
    if "actor" not in doc["specs"]:
        raise CheckpointError("checkpoint requires an actor network")
    spec = _decode_spec(doc["specs"]["actor"], "actor")
    values = _decode_params(doc["params"]["actor"], "actor")
    try:
        actor = ParamVector(values, spec)
    except ValueError as exc:
        raise CheckpointError(f"network 'actor': {exc}") from None
    return Checkpoint(actor, config, doc["progress"])
