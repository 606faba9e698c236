"""Versioned JSON checkpoints with exact 64-bit parameter round trips.

Parameter arrays are stored as base64 of their little-endian float64
bytes, so save/load reproduces every bit. Network specs are stored as
[input_size, output_size, activation, bound] rows per layer. The config
snapshot uses the flat dotted-key dictionary from the config module; the
document's "algorithm" repeats the config's, and a load rejects a
document where the two differ.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig, config_from_dict, config_to_dict
from .net import LayerSpec, NetworkSpec, ParamVector

FORMAT_VERSION = 1
# Settings a snapshot may hold from before they were retired. No evaluation
# reads either, and an actor's spec keeps the bound it was built with.
_RETIRED_KEYS = ("record_wall_time", "rl.action_bound")


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    """An actor (plus a training run's critics), its config and progress."""

    networks: dict[str, ParamVector]
    config: RunConfig
    progress: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if "actor" not in self.networks:
            raise CheckpointError("checkpoint requires an actor network")


def _encode_spec(spec: NetworkSpec) -> list:
    return [[layer.input_size, layer.output_size, layer.activation, layer.bound]
            for layer in spec.layers]


def _decode_spec(rows, name: str) -> NetworkSpec:
    try:
        layers = tuple(LayerSpec(int(r[0]), int(r[1]), str(r[2]), float(r[3]))
                       for r in rows)
        return NetworkSpec(layers)
    except (ValueError, TypeError, IndexError, KeyError) as exc:
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


def save_checkpoint(ck: Checkpoint, path: str) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "algorithm": ck.config.algorithm,
        "specs": {name: _encode_spec(p.spec) for name, p in ck.networks.items()},
        "params": {name: _encode_params(p.values)
                   for name, p in ck.networks.items()},
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
    if doc["format_version"] != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported format_version {doc['format_version']!r}")
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
    networks = {}
    for name, rows in doc["specs"].items():
        spec = _decode_spec(rows, name)
        values = _decode_params(doc["params"][name], name)
        try:
            networks[name] = ParamVector(values, spec)
        except ValueError as exc:
            raise CheckpointError(f"network {name!r}: {exc}") from None
    return Checkpoint(networks, config, doc["progress"])
