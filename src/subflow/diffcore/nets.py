"""Small trainable network builders: dense stacks and conv layers.

A builder's shape arguments plus its seed and name fully determine the
initial parameters (Glorot-uniform from the named counter-based streams).
A net given its parameter arrays (a checkpoint) draws none.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import ShapeError
from . import tensor as T
from .rng import glorot_uniform
from .tensor import Tensor, _finite_or_raise

# name -> (tape op, the same expression on arrays)
_ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "relu": (T.relu, lambda a: np.maximum(a, 0)),
    "tanh": (T.tanh, np.tanh),
}


def dense_shapes(widths: Sequence[int]) -> list[tuple[int, ...]]:
    """Parameter shapes of a `DenseNet` of `widths`, in `parameters()` order."""
    return [s for nin, nout in zip(widths[:-1], widths[1:]) for s in ((nin, nout), (nout,))]


class DenseNet:
    """MLP over row-major batches: forward maps (M, widths[0]) -> (M, widths[-1]).

    `activation` applies to every hidden layer; the output layer is linear
    unless wrapped by the caller (e.g. a sigmoid head). `params`, arrays of
    the shapes `dense_shapes(widths)` (checked by the caller, who knows their
    file), stand in for the Glorot init.

    There are two forwards with the same expressions and the same bits:
    calling the net records the tape that training backpropagates through,
    and `infer` evaluates plain arrays for inference. It checks each layer's
    output finite once and, where that fails, names the op the tape would.
    """

    def __init__(self, widths: tuple[int, ...], activation: str = "relu", seed: int = 0,
                 name: str = "dense", params: Sequence[np.ndarray] | None = None):
        if len(widths) < 2:
            raise ShapeError("DenseNet needs at least input and output widths")
        if any(w < 1 for w in widths):
            raise ShapeError(f"non-positive layer width in {widths}")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation '{activation}'")
        self.in_width = widths[0]
        self.activation = activation
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for i, (nin, nout) in enumerate(zip(widths[:-1], widths[1:])):
            if params is None:
                w = glorot_uniform(seed, f"{name}.{i}.w", nin, nout, (nin, nout))
                b = np.zeros(nout, dtype=np.float32)
            else:
                w, b = params[2 * i], params[2 * i + 1]
            self.weights.append(Tensor(w, requires_grad=True))
            self.biases.append(Tensor(b, requires_grad=True))

    def parameters(self) -> list[Tensor]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def _check_rows(self, rows: np.ndarray) -> None:
        if rows.ndim != 2 or rows.shape[1] != self.in_width:
            raise ShapeError(f"dense net expects rows of dim {self.in_width}, "
                             f"got shape {rows.shape}")

    def __call__(self, x) -> Tensor:
        h = T.as_tensor(x)
        self._check_rows(h.data)
        act = _ACTIVATIONS[self.activation][0]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = T.add(T.matmul(h, w), b)
            if i != last:
                h = act(h)
        return h

    def evaluator(self, dtype) -> Callable[[np.ndarray], np.ndarray]:
        """`infer` on rows of `dtype`, through the weights and biases cast to
        `dtype` once, here: calls repeated over the same weights (the Euler
        steps of one integration) do not cast them again. It holds the arrays
        the net has now, so weights rebound later need a new evaluator."""
        layers = [(w.data.astype(dtype, copy=False), b.data.astype(dtype, copy=False))
                  for w, b in zip(self.weights, self.biases)]
        act = _ACTIVATIONS[self.activation][1]
        last = len(layers) - 1

        def evaluate(rows: np.ndarray) -> np.ndarray:
            self._check_rows(rows)
            h = rows
            for i, (w, b) in enumerate(layers):
                product = h @ w
                h = product + b
                # one check per layer: a non-finite product makes a non-finite
                # sum, and relu and tanh of finite values are finite
                if not np.isfinite(h).all():
                    _finite_or_raise(product, "matmul")
                    _finite_or_raise(h, "add")
                if i != last:
                    h = act(h)
            return h
        return evaluate

    def infer(self, x) -> np.ndarray:
        """`self(Tensor(x)).data`, bit for bit, without recording a tape."""
        rows = T.as_tensor(x).data
        return self.evaluator(rows.dtype)(rows)


def conv_shapes(cin: int, cout: int, k: int) -> list[tuple[int, ...]]:
    """Parameter shapes of a `Conv2dLayer`, in `parameters()` order."""
    return [(cout, cin, k, k), (cout,)]


class Conv2dLayer:
    """Single conv layer over (C, H, W) images. `params`, arrays of the shapes
    `conv_shapes(cin, cout, k)` (checked by the caller), stand in for the
    Glorot init."""

    def __init__(self, cin: int, cout: int, k: int, stride: int = 1, padding: int = 0,
                 seed: int = 0, name: str = "conv", params: Sequence[np.ndarray] | None = None):
        if params is None:
            w_shape, b_shape = conv_shapes(cin, cout, k)
            w = glorot_uniform(seed, f"{name}.w", cin * k * k, cout * k * k, w_shape)
            b = np.zeros(b_shape, dtype=np.float32)
        else:
            w, b = params
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(b, requires_grad=True)
        self.stride = stride
        self.padding = padding

    def parameters(self) -> list[Tensor]:
        return [self.weight, self.bias]

    def __call__(self, x) -> Tensor:
        return T.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)
