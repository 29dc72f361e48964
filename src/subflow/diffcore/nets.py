"""Small trainable network builders: dense stacks and conv layers.

A builder's shape arguments plus its seed and name fully determine the
initial parameters (Glorot-uniform from the named counter-based streams).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ShapeError
from . import tensor as T
from .rng import glorot_uniform
from .tensor import Tensor

_ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "relu": T.relu,
    "tanh": T.tanh,
}


class DenseNet:
    """MLP over row-major batches: forward maps (M, widths[0]) -> (M, widths[-1]).

    `activation` applies to every hidden layer; the output layer is linear
    unless wrapped by the caller (e.g. a sigmoid head).
    """

    def __init__(self, widths: tuple[int, ...], activation: str = "relu", seed: int = 0,
                 name: str = "dense"):
        if len(widths) < 2:
            raise ShapeError("DenseNet needs at least input and output widths")
        if any(w < 1 for w in widths):
            raise ShapeError(f"non-positive layer width in {widths}")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation '{activation}'")
        self.in_width = widths[0]
        self.activation = _ACTIVATIONS[activation]
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for i, (nin, nout) in enumerate(zip(widths[:-1], widths[1:])):
            w = glorot_uniform(seed, f"{name}.{i}.w", nin, nout, (nin, nout))
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
        if h.data.ndim != 2 or h.data.shape[1] != self.in_width:
            raise ShapeError(f"dense net expects (M, {self.in_width}), got {h.data.shape}")
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = T.add(T.matmul(h, w), b)
            if i != last:
                h = self.activation(h)
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
