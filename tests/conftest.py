"""Pins BLAS to one thread for the whole test run, and records spans.

Small-matrix numpy here is sensitive to the BLAS thread count. pytest
loads this file before any test module imports numpy, and worker
processes spawned by tests inherit the environment.

The `spans` fixture sets a recorder on `quadrl.trace` for one test.
"""

import collections
import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


class SpanRecorder:
    """A `quadrl.trace` recorder: `counts` the calls each span starts, and
    `keep(name)` returns a list that gains the (args, result) of each call
    of that span that returns."""

    def __init__(self):
        self.counts = collections.Counter()
        self._kept: dict[str, list] = {}

    def keep(self, name: str) -> list:
        return self._kept.setdefault(name, [])

    def __call__(self, name, fn, args, kwargs):
        self.counts[name] += 1
        result = fn(*args, **kwargs)
        if name in self._kept:
            self._kept[name].append((args, result))
        return result


@pytest.fixture
def spans(monkeypatch):
    """A `SpanRecorder` that sees every spanned call of the test from here on."""
    recorder = SpanRecorder()
    monkeypatch.setattr("quadrl.trace.recorder", recorder)
    return recorder
