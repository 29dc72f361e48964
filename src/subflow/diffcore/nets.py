"""The two trainable network types: `DenseNet` over rows and `ConvNet` over
(C, H, W) images. Every net of the pipeline is one of them: the color
decoder, the mapping and the velocity fields are `DenseNet`s; the encoders'
two frozen stacks, the 2D prior and the discriminator are `ConvNet`s.

A net's shape arguments plus its seed and layer names fully determine the
initial parameters (Glorot-uniform from the named counter-based streams).
A net given its parameter arrays (a checkpoint) draws none. Both hold
`weights` and `biases` lists, and `parameters()` returns them interleaved
as w, b, w, b, ... (the checkpoint order).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..errors import ShapeError
from . import tensor as T
from .rng import glorot_uniform
from .tensor import Tensor, _finite_or_raise

# one conv layer: (name, cin, cout, k, stride, padding)
ConvSpec = tuple[str, int, int, int, int, int]

# name -> (tape op, the same expression on arrays, the tape's vjp on arrays
# given the gradient g, the pre-activation z and the activation y)
_ACTIVATIONS: dict[str, tuple[Callable, Callable, Callable]] = {
    "relu": (T.relu, lambda a: np.maximum(a, 0), lambda g, z, y: g * (z > 0)),
    "tanh": (T.tanh, np.tanh, lambda g, z, y: g * (1.0 - y * y)),
}


def _affine(h: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`h @ w + b`, checked once: a non-finite product makes a non-finite sum,
    so only a non-finite sum looks for the op the tape would name."""
    product = h @ w
    out = product + b
    if not np.isfinite(out).all():
        _finite_or_raise(product, "matmul")
        _finite_or_raise(out, "add")
    return out


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
    calling the net records the tape, and `infer` evaluates plain arrays for
    inference. There are two backwards too: the tape's `backward`, and
    `mse_grads`, the mean squared error's loss and gradients in plain arrays,
    which the flow trainers step with. The plain forms check each layer's
    output finite once, after the bias add (relu and tanh of finite values
    are finite), and where that fails name the op the tape would.
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
        return [p for pair in zip(self.weights, self.biases) for p in pair]

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
                h = _affine(h, w, b)
                if i != last:
                    h = act(h)
            return h
        return evaluate

    def infer(self, x) -> np.ndarray:
        """`self(Tensor(x)).data`, bit for bit, without recording a tape."""
        rows = T.as_tensor(x).data
        return self.evaluator(rows.dtype)(rows)

    def mse_grads(self, x, target) -> tuple[np.ndarray, list[np.ndarray]]:
        """`loss = dt.mse(self(Tensor(x)), Tensor(target))` as its 0-d data and
        `loss.backward(self.parameters())`, bit for bit, without recording a
        tape: the tape's ops in the tape's order. `target` has the outputs'
        shape (the tape would also take one that broadcasts). The loss's own
        checks (`sub`, `mul`, `mean`) run only when the loss is not finite."""
        rows, y = T.as_tensor(x).data, T.as_tensor(target).data
        self._check_rows(rows)
        if y.shape != (len(rows), self.weights[-1].data.shape[1]):
            raise ShapeError(f"mse_grads: target of shape {y.shape} for {len(rows)} rows "
                             f"of width {self.weights[-1].data.shape[1]}")
        _, act, act_vjp = _ACTIVATIONS[self.activation]
        last = len(self.weights) - 1
        inputs, pre = [], []            # each layer's input and pre-activation
        h = rows
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            inputs.append(h)
            h = _affine(h, w.data, b.data)
            if i != last:
                pre.append(h)
                h = act(h)
        d = h - y
        sq = d * d
        loss = np.asarray(sq.mean())
        if not np.isfinite(loss):
            _finite_or_raise(d, "sub")
            _finite_or_raise(sq, "mul")
            _finite_or_raise(loss, "mean")
        g = np.ones_like(loss) / d.size         # the mean's vjp, broadcast below
        g = g * d + g * d                       # mul's two vjps, summed; sub passes g
        grads = []
        for i in range(last, -1, -1):
            grads += [g.sum(axis=0), inputs[i].T @ g]      # bias, then weight
            if i:
                g = act_vjp(g @ self.weights[i].data.T, pre[i - 1], inputs[i])
        grads.reverse()
        for j, p in enumerate(self.parameters()):
            grads[j] = grads[j].astype(p.data.dtype)
            grads[j] += 0.0             # as `backward` makes a leaf's: -0.0 becomes +0.0
        return loss, grads


def conv_shapes(layers: Sequence[ConvSpec]) -> list[tuple[int, ...]]:
    """Parameter shapes of a `ConvNet` of `layers`, in `parameters()` order."""
    return [s for _, cin, cout, k, _, _ in layers for s in ((cout, cin, k, k), (cout,))]


class ConvNet:
    """Conv stack over (C, H, W) images, one `(name, cin, cout, k, stride,
    padding)` per layer. Each layer's Glorot init is drawn from the stream
    `"{name}.w"`; `params`, arrays of the shapes `conv_shapes(layers)`
    (checked by the caller, who knows their file), stand in for it."""

    def __init__(self, layers: Sequence[ConvSpec], seed: int = 0,
                 params: Sequence[np.ndarray] | None = None):
        self.layers = tuple(layers)
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for i, (name, cin, cout, k, _, _) in enumerate(self.layers):
            if params is None:
                w = glorot_uniform(seed, f"{name}.w", cin * k * k, cout * k * k,
                                   (cout, cin, k, k))
                b = np.zeros(cout, dtype=np.float32)
            else:
                w, b = params[2 * i], params[2 * i + 1]
            self.weights.append(Tensor(w, requires_grad=True))
            self.biases.append(Tensor(b, requires_grad=True))

    parameters = DenseNet.parameters     # w, b, w, b, ...

    def outputs(self, x) -> list[Tensor]:
        """Each layer's output, with relu after every layer but the last."""
        h = T.as_tensor(x)
        outs = []
        last = len(self.layers) - 1
        for i, ((*_, stride, padding), w, b) in enumerate(
                zip(self.layers, self.weights, self.biases)):
            h = T.conv2d(h, w, b, stride=stride, padding=padding)
            if i != last:
                h = T.relu(h)
            outs.append(h)
        return outs
