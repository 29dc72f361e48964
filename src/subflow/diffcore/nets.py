"""Small trainable network builders: dense stacks and conv layers.

Architectures are described by plain dataclass specs; a spec plus its seed
fully determines the initial parameters (Glorot-uniform from the named
counter-based streams).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ShapeError
from . import tensor as T
from .rng import glorot_uniform
from .tensor import Tensor

_ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "relu": T.relu,
    "tanh": T.tanh,
    "none": lambda t: t,
}


@dataclass(frozen=True)
class DenseNetSpec:
    """Fully connected stack: widths[0] inputs -> widths[-1] outputs.

    `activation` applies to every hidden layer; the output layer is linear
    unless wrapped by the caller (e.g. a sigmoid head).
    """
    layer_widths: tuple[int, ...]
    activation: str = "relu"
    seed: int = 0

    def __post_init__(self):
        if len(self.layer_widths) < 2:
            raise ShapeError("DenseNetSpec needs at least input and output widths")
        if any(w < 1 for w in self.layer_widths):
            raise ShapeError(f"non-positive layer width in {self.layer_widths}")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation '{self.activation}'")


class DenseNet:
    """MLP over row-major batches: forward maps (M, in) -> (M, out)."""

    def __init__(self, spec: DenseNetSpec, name: str = "dense"):
        self.spec = spec
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        widths = spec.layer_widths
        for i, (nin, nout) in enumerate(zip(widths[:-1], widths[1:])):
            w = glorot_uniform(spec.seed, f"{name}.{i}.w", nin, nout, (nin, nout))
            self.weights.append(Tensor(w, requires_grad=True))
            self.biases.append(Tensor(np.zeros(nout, dtype=np.float32), requires_grad=True))

    def parameters(self) -> list[Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def __call__(self, x) -> Tensor:
        h = T.as_tensor(x)
        if h.data.ndim != 2 or h.data.shape[1] != self.spec.layer_widths[0]:
            raise ShapeError(
                f"dense net expects (M, {self.spec.layer_widths[0]}), got {h.data.shape}")
        act = _ACTIVATIONS[self.spec.activation]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = T.add(T.matmul(h, w), b)
            if i != last:
                h = act(h)
        return h


class Conv2dLayer:
    """Single conv layer over (C, H, W) images."""

    def __init__(self, cin: int, cout: int, k: int, stride: int = 1, padding: int = 0,
                 seed: int = 0, name: str = "conv"):
        fan_in = cin * k * k
        fan_out = cout * k * k
        w = glorot_uniform(seed, f"{name}.w", fan_in, fan_out, (cout, cin, k, k))
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(cout, dtype=np.float32), requires_grad=True)
        self.stride = stride
        self.padding = padding

    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]

    def __call__(self, x) -> Tensor:
        return T.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)
