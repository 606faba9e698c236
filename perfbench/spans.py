"""In-memory spans around quadrl's public functions, recorded from outside.

A span is (name, start, end, parent). Installing a `Tracer` replaces each
traced function with a recording wrapper in every quadrl namespace that
holds it, so names imported with ``from .x import f`` (``env.height_at``,
``cem.train_step``, ``train.train_step``, ``cem.run_episode``,
``evaluate.run_episode``, ...) are traced too. Nothing under ``src/`` is
edited; `uninstall` puts the original objects back.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (span name, module, attribute); an attribute "Class.method" patches a method.
TRACED = (
    ("terrain.height_at", "quadrl.terrain", "height_at"),
    ("terrain.make_terrain", "quadrl.terrain", "make_terrain"),
    ("env.step", "quadrl.env", "step"),
    ("env.integrate", "quadrl.env", "integrate"),
    ("env.contact_forces", "quadrl.env", "contact_forces"),
    ("net.forward", "quadrl.net", "forward"),
    ("net.backward", "quadrl.net", "backward"),
    ("net.adam_step", "quadrl.net", "adam_step"),
    ("net.polyak_blend", "quadrl.net", "polyak_blend"),
    ("replay.push", "quadrl.replay", "ReplayBuffer.push"),
    ("replay.sample_batch", "quadrl.replay", "ReplayBuffer.sample_batch"),
    ("rl.train_step", "quadrl.rl", "train_step"),
    ("cem.cem_rl_generation", "quadrl.cem", "cem_rl_generation"),
    ("rollout.run_episode", "quadrl.rollout", "run_episode"),
    ("checkpoint.save_checkpoint", "quadrl.checkpoint", "save_checkpoint"),
)


def _quadrl_namespaces():
    return [vars(m) for name, m in list(sys.modules.items())
            if m is not None and (name == "quadrl" or name.startswith("quadrl."))]


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    cls_name, _, method = attr.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name)
    return owner, method


class Tracer:
    """Records spans in parallel arrays; one tracer per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict[str, int] = {}
        self._stack = [-1]
        self._patches: list[tuple[dict | type, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called name."""
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.errors[name] = self.errors.get(name, 0) + 1
            raise
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, name: str, fn):
        span = self.span
        if name == "net.forward":
            # Split single-observation inference from batched learner passes.
            def traced(params, inputs):
                b1 = np.ndim(inputs) == 1 or len(inputs) == 1
                return span("net.forward.b1" if b1 else "net.forward.batch",
                            fn, params, inputs)
        else:
            def traced(*args, **kwargs):
                return span(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind each traced function wherever quadrl holds it."""
        namespaces = _quadrl_namespaces()
        for name, module, attr in TRACED:
            owner, key = _resolve(module, attr)
            original = getattr(owner, key)
            wrapped = self._wrapper(name, original)
            if isinstance(owner, type):
                self._patches.append((owner, key, original))
                setattr(owner, key, wrapped)
                continue
            for ns in namespaces:
                for bound, value in list(ns.items()):
                    if value is original:
                        self._patches.append((ns, bound, original))
                        ns[bound] = wrapped

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, type):
                setattr(target, key, original)
            else:
                target[key] = original
        self._patches.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self seconds, errors and each call's duration."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        out = {}
        for k, name in enumerate(self.names):
            mask = ids == k
            out[name] = {"calls": int(mask.sum()),
                         "self_s": float(self_time[mask].sum()),
                         "durations": dur[mask],
                         "errors": self.errors.get(name, 0)}
        return out
