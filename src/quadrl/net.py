"""Small dense networks stored as flat float64 parameter vectors.

All weights and biases of a network live in one flat array so the same
parameters can be stepped by Adam and resampled by the cross-entropy
search without any conversion. Forward and backward passes are exact
closed-form implementations (no autodiff framework).

Flat layout (load-bearing for the evolutionary statistics): layers in
order, each layer contributing its weight matrix in row-major order
(shape ``(output_size, input_size)``) followed by its bias vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .trace import span

ACTIVATIONS = ("tanh", "linear", "scaled_tanh")


class TrainingDiverged(RuntimeError):
    """A loss or gradient became non-finite during an update."""


@dataclass(frozen=True)
class LayerSpec:
    """One affine layer plus activation.

    ``scaled_tanh`` squashes to [-bound, +bound]; ``bound`` is ignored by
    the other activations.
    """

    input_size: int
    output_size: int
    activation: str = "tanh"
    bound: float = 0.0

    def __post_init__(self) -> None:
        if self.input_size < 1 or self.output_size < 1:
            raise ValueError(
                f"layer sizes must be >= 1, got {self.input_size}->{self.output_size}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.activation == "scaled_tanh" and not self.bound > 0.0:
            raise ValueError("scaled_tanh requires a positive bound")

    @property
    def param_count(self) -> int:
        return self.input_size * self.output_size + self.output_size


@dataclass(frozen=True)
class NetworkSpec:
    """Ordered stack of layers; consecutive layers must be dimension-compatible."""

    layers: tuple[LayerSpec, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("network needs at least one layer")
        object.__setattr__(self, "layers", tuple(self.layers))
        for prev, cur in zip(self.layers, self.layers[1:]):
            if prev.output_size != cur.input_size:
                raise ValueError(
                    f"incompatible layer chain: {prev.output_size} -> {cur.input_size}"
                )

    @property
    def input_size(self) -> int:
        return self.layers[0].input_size

    @property
    def output_size(self) -> int:
        return self.layers[-1].output_size

    @cached_property
    def param_count(self) -> int:
        return sum(layer.param_count for layer in self.layers)


def mlp_spec(
    sizes: Sequence[int],
    hidden_activation: str = "tanh",
    output_activation: str = "linear",
    output_bound: float = 0.0,
) -> NetworkSpec:
    """Build a NetworkSpec from a list of layer widths, e.g. [48, 64, 64, 8]."""
    if len(sizes) < 2:
        raise ValueError("need at least an input and an output size")
    layers = []
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        last = i == len(sizes) - 2
        layers.append(
            LayerSpec(
                n_in,
                n_out,
                activation=output_activation if last else hidden_activation,
                bound=output_bound if last else 0.0,
            )
        )
    return NetworkSpec(tuple(layers))


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Immutable flat parameter array tied to the spec that shapes it."""

    values: np.ndarray
    spec: NetworkSpec

    def __post_init__(self) -> None:
        # A private copy, so no array a caller holds aliases the parameters.
        values = np.array(self.values, dtype=np.float64).ravel()
        if values.size != self.spec.param_count:
            raise ValueError(
                f"parameter length {values.size} does not match spec "
                f"({self.spec.param_count})"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @cached_property
    def views(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(weights, bias) views into the values, layer by layer."""
        return tuple(_layer_views(self.values, self.spec))


def _layer_views(values: np.ndarray, spec: NetworkSpec):
    """Yield (weights, bias) views into a flat array, layer by layer."""
    offset = 0
    for layer in spec.layers:
        n_w = layer.input_size * layer.output_size
        w = values[offset : offset + n_w].reshape(layer.output_size, layer.input_size)
        b = values[offset + n_w : offset + n_w + layer.output_size]
        offset += layer.param_count
        yield w, b


def init_network(spec: NetworkSpec, seed: int) -> ParamVector:
    """Seeded init: weights uniform in +-1/sqrt(fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    chunks = []
    for layer in spec.layers:
        scale = 1.0 / np.sqrt(layer.input_size)
        w = rng.uniform(-scale, scale, size=(layer.output_size, layer.input_size))
        chunks.append(w.ravel())
        chunks.append(np.zeros(layer.output_size))
    return ParamVector(np.concatenate(chunks), spec)


def _activate(z: np.ndarray, layer: LayerSpec) -> np.ndarray:
    """Apply the layer's activation to z in place and return z."""
    if layer.activation != "linear":
        np.tanh(z, out=z)
        if layer.activation == "scaled_tanh":
            z *= layer.bound
    return z


def _activation_grad(g: np.ndarray, y: np.ndarray, layer: LayerSpec) -> np.ndarray:
    """g times the activation's derivative, in a new array unless linear.

    The derivative is expressed through the layer output y, which is
    cheaper than keeping z.
    """
    if layer.activation == "linear":
        return g
    dz = y * y
    if layer.activation == "tanh":
        np.subtract(1.0, dz, out=dz)
    else:
        dz /= layer.bound
        np.subtract(layer.bound, dz, out=dz)
    dz *= g
    return dz


@span
def layer_outputs(params: ParamVector, inputs) -> list[np.ndarray]:
    """The input batch, then each layer's output: one recorded forward pass.

    A single input vector counts as a batch of one. The last entry is the
    network's output, and `backward` takes the whole list.
    """
    spec = params.spec
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != spec.input_size:
        raise ValueError(f"input has shape {np.shape(inputs)}, "
                         f"expected (..., {spec.input_size})")
    outputs = [x]
    for (w, b), layer in zip(params.views, spec.layers):
        z = x @ w.T
        z += b
        x = _activate(z, layer)
        outputs.append(x)
    return outputs


@span
def forward(params: ParamVector, inputs) -> np.ndarray:
    """Evaluate the network. Accepts a single input vector or a batch."""
    y = layer_outputs(params, inputs)[-1]
    return y[0] if np.ndim(inputs) == 1 else y


GRADIENTS = ("params", "inputs")


@span
def backward(params: ParamVector, outputs: Sequence[np.ndarray], output_grad,
             wrt: str) -> np.ndarray:
    """Exact reverse-mode gradient of a recorded forward pass.

    ``outputs`` is what `layer_outputs` returned for ``params``; nothing
    is evaluated again, and neither it nor ``output_grad`` is modified.
    ``output_grad`` has one row per input row. ``wrt="params"`` returns
    the parameter gradient, a flat array in the documented layout summed
    over the batch; ``wrt="inputs"`` returns the input gradient, shaped
    like the input batch, which lets an actor update chain through a
    critic's action input. Only the arithmetic the asked-for gradient
    needs is done.
    """
    if wrt not in GRADIENTS:
        raise ValueError(f"wrt must be one of {GRADIENTS}, got {wrt!r}")
    spec = params.spec
    # A linear output layer hands g straight to the products below; making
    # it contiguous keeps their operand layout, and so their bytes, the same
    # however the caller sliced it.
    g = np.ascontiguousarray(output_grad, dtype=np.float64)
    if g.shape != outputs[-1].shape:
        raise ValueError(f"output gradient has shape {g.shape}, "
                         f"expected {outputs[-1].shape}")

    if wrt == "params":
        param_grad = np.empty(spec.param_count)
        grad_views = tuple(_layer_views(param_grad, spec))
    for idx in range(len(spec.layers) - 1, -1, -1):
        dz = _activation_grad(g, outputs[idx + 1], spec.layers[idx])
        if wrt == "params":
            gw, gb = grad_views[idx]
            np.matmul(dz.T, outputs[idx], out=gw)
            np.add.reduce(dz, axis=0, out=gb)
        if idx > 0 or wrt == "inputs":
            g = dz @ params.views[idx][0]
    return param_grad if wrt == "params" else g


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True, eq=False)
class AdamState:
    """Adam moment estimates for one parameter vector."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    def __post_init__(self) -> None:
        if self.step_count < 0:
            raise ValueError("step_count must be non-negative")
        if self.first_moment.shape != self.second_moment.shape:
            raise ValueError("moment arrays must have matching shapes")


def init_adam(param_count: int) -> AdamState:
    return AdamState(np.zeros(param_count), np.zeros(param_count))


@span
def adam_step(params: ParamVector, grads, state: AdamState,
              lr: float) -> tuple[ParamVector, AdamState]:
    """One bias-corrected Adam descent step; refuses non-finite gradients."""
    g = np.asarray(grads, dtype=np.float64).ravel()
    if g.size != params.values.size or g.size != state.first_moment.size:
        raise ValueError("gradient length does not match parameters")
    if not np.all(np.isfinite(g)):
        raise TrainingDiverged("non-finite gradient: update refused")
    t = state.step_count + 1
    # m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * g * g, then
    # values - lr * m_hat / (sqrt(v_hat) + eps), each operation in this
    # order, with one scratch array for the terms.
    term = (1.0 - ADAM_BETA1) * g
    m = ADAM_BETA1 * state.first_moment
    m += term
    np.multiply(1.0 - ADAM_BETA2, g, out=term)
    term *= g
    v = ADAM_BETA2 * state.second_moment
    v += term
    denom = np.divide(v, 1.0 - ADAM_BETA2**t, out=term)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step = m / (1.0 - ADAM_BETA1**t)
    step *= lr
    step /= denom
    np.subtract(params.values, step, out=step)
    return ParamVector(step, params.spec), AdamState(m, v, t)


@span
def polyak_blend(target: ParamVector, source: ParamVector, tau: float) -> ParamVector:
    """target' = (1 - tau) * target + tau * source, componentwise."""
    if target.spec != source.spec:
        raise ValueError("polyak blend requires matching network specs")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    return ParamVector((1.0 - tau) * target.values + tau * source.values, target.spec)
