"""Reverse-mode autodiff on dense numpy arrays.

A `Tensor` holds its data and its tape, nothing else. An op's output records
its tape as `_vjps`: one `(operand, vjp)` pair per operand that requires a
gradient, where `vjp(g)` maps the output's gradient to that operand's. A
constant operand gets no pair, so its gradient is never formed.
`backward(wrt)` on a scalar walks the pairs in reverse topological order,
runs a vjp only where its operand leads to one of the leaves in `wrt`, and
returns the gradients of those leaves as values; no tensor stores one.
`Adam.step(grads)` takes that list for its own parameters,
`loss.backward(opt.params)`. A vjp reads operand `.data` when it runs, so a
graph backpropagated after an optimizer step sees the updated parameters.
(`DenseNet.mse_grads` is a second backward, off the tape, for the one loss
the flow trainers fit.)

Forward values are checked finite after every op: NaN/Inf raises
`NumericsError` instead of propagating silently. Shape violations raise
`ShapeError` naming the op and the offending shapes.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from ..errors import NumericsError, ShapeError

Arrayish = Union["Tensor", np.ndarray, float, int, list]
Vjp = Callable[[np.ndarray], np.ndarray]


class Tensor:
    """Dense float tensor with optional participation in the gradient tape."""

    __slots__ = ("data", "requires_grad", "_vjps")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self._vjps: tuple[tuple[Tensor, Vjp], ...] = ()

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def backward(self, wrt: Sequence[Tensor]) -> list[Optional[np.ndarray]]:
        """This scalar's gradient for each leaf of `wrt`, in order and in the
        leaf's dtype, or None where it does not reach the leaf; new arrays."""
        if self.data.size != 1:
            raise ShapeError(
                f"backward() requires a scalar loss, got shape {self.data.shape}")
        wanted = set(wrt)
        # depth-first post-order: a node is emitted after its operands, and
        # reaches `wrt` if it is wanted or one of its operands reaches
        reaches = set(wanted)
        order: list[Tensor] = []        # the emitted nodes that reach `wrt`
        seen: set[Tensor] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                if node in reaches:
                    order.append(node)
                    continue
                for operand, _ in node._vjps:
                    if operand in reaches:
                        reaches.add(node)
                        order.append(node)
                        break
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for operand, _ in node._vjps:
                if operand not in seen:
                    stack.append((operand, False))
        found: dict[Tensor, np.ndarray] = {}
        grads: dict[Tensor, np.ndarray] = {self: np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(node)         # set by its consumers, which come first
            if node in wanted:
                found[node] = leaf_grad = g.astype(node.data.dtype)
                leaf_grad += 0.0        # g + 0 as onto a zeroed buffer: -0.0 becomes +0.0
            for operand, vjp in node._vjps:
                if operand not in reaches:
                    continue
                pg = vjp(g)
                acc = grads.get(operand)
                if acc is None:
                    # views are copied so every gradient a vjp sees is dense
                    grads[operand] = pg if pg.base is None else np.array(pg)
                else:
                    # never in place: `acc` may be shared with another operand
                    grads[operand] = np.add(acc, pg, out=np.empty_like(acc))
        return [found.get(leaf) for leaf in wrt]


def as_tensor(x: Arrayish) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _operands(a: Arrayish, b: Arrayish) -> tuple[Tensor, Tensor]:
    """Both operands as tensors. A Python number takes the dtype of the tensor
    it meets, so a float32 graph stays float32 (numpy 2 promotes float32 with
    a 0-d float64 array to float64)."""
    if isinstance(a, (int, float)) and not isinstance(b, (int, float)):
        b = as_tensor(b)
        a = np.asarray(a, dtype=b.data.dtype)
    elif isinstance(b, (int, float)):
        a = as_tensor(a)
        b = np.asarray(b, dtype=a.data.dtype)
    return as_tensor(a), as_tensor(b)


def _finite_or_raise(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericsError(f"op '{op}' produced non-finite values")


def _quiet():
    return np.errstate(divide="ignore", invalid="ignore", over="ignore")


def _make(op: str, data: np.ndarray, *pairs: tuple[Tensor, Vjp]) -> Tensor:
    """Output of `op`, taping the `(operand, vjp)` pairs that need a gradient."""
    _finite_or_raise(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out._vjps = tuple(pair for pair in pairs if pair[0].requires_grad)
    out.requires_grad = bool(out._vjps)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, (gs, ts) in enumerate(zip(g.shape, shape)) if ts == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise arithmetic -------------------------------------------------

def add(a: Arrayish, b: Arrayish) -> Tensor:
    a, b = _operands(a, b)
    return _make("add", a.data + b.data,
                 (a, lambda g: _unbroadcast(g, a.data.shape)),
                 (b, lambda g: _unbroadcast(g, b.data.shape)))


def sub(a: Arrayish, b: Arrayish) -> Tensor:
    a, b = _operands(a, b)
    return _make("sub", a.data - b.data,
                 (a, lambda g: _unbroadcast(g, a.data.shape)),
                 (b, lambda g: _unbroadcast(-g, b.data.shape)))


def mul(a: Arrayish, b: Arrayish) -> Tensor:
    a, b = _operands(a, b)
    return _make("mul", a.data * b.data,
                 (a, lambda g: _unbroadcast(g * b.data, a.data.shape)),
                 (b, lambda g: _unbroadcast(g * a.data, b.data.shape)))


# -- linear algebra ----------------------------------------------------------

def matmul(a: Arrayish, b: Arrayish) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.data.shape} @ {b.data.shape}")
    return _make("matmul", a.data @ b.data,
                 (a, lambda g: g @ b.data.T),
                 (b, lambda g: a.data.T @ g))


def tile_matmul(blocks: Sequence[tuple], rows: int, x: Arrayish) -> Tensor:
    """W @ x for a constant (rows, M) matrix W held as (pix, cols, b) blocks:
    out[pix] = b @ x[cols], zero in rows no block has. No two blocks share a
    row and no block repeats a column, so the vjp's fancy-index `+=` is exact."""
    x = as_tensor(x)
    if x.data.ndim != 2:
        raise ShapeError(f"tile_matmul expects a 2-D operand, got {x.data.shape}")
    data = np.zeros((rows, x.data.shape[1]), dtype=x.data.dtype)
    for pix, cols, b in blocks:
        data[pix] = b @ x.data[cols]

    def vjp(g):
        dx = np.zeros(x.data.shape, dtype=g.dtype)
        for pix, cols, b in blocks:
            dx[cols] += b.T @ g[pix]
        return dx
    return _make("tile_matmul", data, (x, vjp))


def transpose(a: Arrayish) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose expects 2-D, got {a.data.shape}")
    return _make("transpose", a.data.T.copy(), (a, lambda g: g.T))


# -- nonlinearities ----------------------------------------------------------

def relu(a: Arrayish) -> Tensor:
    a = as_tensor(a)
    # subgradient at 0 is 0
    return _make("relu", np.maximum(a.data, 0), (a, lambda g: g * (a.data > 0)))


def tanh(a: Arrayish) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)
    return _make("tanh", data, (a, lambda g: g * (1.0 - data * data)))


def sigmoid(a: Arrayish) -> Tensor:
    a = as_tensor(a)
    with _quiet():
        data = 1.0 / (1.0 + np.exp(-a.data))
    return _make("sigmoid", data, (a, lambda g: g * data * (1.0 - data)))


def log(a: Arrayish) -> Tensor:
    a = as_tensor(a)
    with _quiet():
        data = np.log(a.data)
    return _make("log", data, (a, lambda g: g / a.data))


def sqrt(a: Arrayish) -> Tensor:
    a = as_tensor(a)
    with _quiet():
        data = np.sqrt(a.data)
    return _make("sqrt", data, (a, lambda g: g * 0.5 / data))


def clamp(a: Arrayish, lo: float, hi: float) -> Tensor:
    """Clip to [lo, hi]; gradient passes only where the value was interior."""
    a = as_tensor(a)
    return _make("clamp", np.clip(a.data, lo, hi),
                 (a, lambda g: g * ((a.data >= lo) & (a.data <= hi))))


# -- reductions / shape ops ---------------------------------------------------

def tsum(a: Arrayish) -> Tensor:
    """Sum of every element."""
    a = as_tensor(a)
    return _make("sum", np.asarray(a.data.sum()),
                 (a, lambda g: np.broadcast_to(g, a.data.shape).copy()))


def tmean(a: Arrayish, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    data = a.data.mean(axis=axis, keepdims=keepdims)

    def vjp(g):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(gg / n, a.data.shape).copy()
    return _make("mean", np.asarray(data), (a, vjp))


def mse(a: Arrayish, b: Arrayish) -> Tensor:
    """Mean squared difference: `tmean(mul(d, d))` of `d = sub(a, b)`."""
    d = sub(a, b)
    return tmean(mul(d, d))


def reshape(a: Arrayish, shape) -> Tensor:
    a = as_tensor(a)
    return _make("reshape", a.data.reshape(shape), (a, lambda g: g.reshape(a.data.shape)))


def concat(tensors: Sequence[Arrayish]) -> Tensor:
    """The tensors stacked along their first axis."""
    ts = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in ts])
    bounds = np.cumsum([0] + [t.data.shape[0] for t in ts]).tolist()
    return _make("concat", data, *((t, lambda g, lo=lo, hi=hi: g[lo:hi])
                                   for t, lo, hi in zip(ts, bounds[:-1], bounds[1:])))


# -- image ops (C, H, W layout) ----------------------------------------------

def conv2d(x: Arrayish, weight: Arrayish, bias: Arrayish,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution of a (C_in, H, W) image by a (C_out, C_in, kh, kw) kernel,
    plus a (C_out,) bias."""
    x, weight, b = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.data.ndim != 3 or weight.data.ndim != 4:
        raise ShapeError(
            f"conv2d expects image (C,H,W) and kernel (O,C,kh,kw), got {x.data.shape}, {weight.data.shape}")
    cin, h, w = x.data.shape
    cout, cin_k, kh, kw = weight.data.shape
    if cin != cin_k:
        raise ShapeError(f"conv2d channel mismatch: image {x.data.shape} vs kernel {weight.data.shape}")
    if b.data.shape != (cout,):
        raise ShapeError(f"conv2d bias shape {b.data.shape} != ({cout},)")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(
            f"conv2d kernel {kh}x{kw} does not fit image {h}x{w} with padding {padding}")
    hout = (hp - kh) // stride + 1
    wout = (wp - kw) // stride + 1

    xp = x.data
    if padding:
        xp = np.zeros((cin, hp, wp), dtype=x.data.dtype)
        xp[:, padding:padding + h, padding:padding + w] = x.data
    # im2col: one strided plane per kernel offset into a C-ordered
    # (hout, wout, cin, kh, kw) buffer
    col = np.empty((hout, wout, cin, kh, kw), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            col[:, :, :, i, j] = xp[:, i:i + stride * hout:stride,
                                    j:j + stride * wout:stride].transpose(1, 2, 0)
    col = col.reshape(hout * wout, cin * kh * kw)
    wmat = weight.data.reshape(cout, cin * kh * kw)
    out = np.ascontiguousarray((col @ wmat.T).T).reshape(cout, hout, wout) + b.data[:, None, None]

    def dx(g):
        dcol = (g.reshape(cout, hout * wout).T @ wmat).reshape(hout, wout, cin, kh, kw)
        # channels last, so each slice-add reads dcol's planes in memory order
        dxp = np.zeros((hp, wp, cin), dtype=g.dtype)
        for i in range(kh):
            for j in range(kw):
                dxp[i:i + stride * hout:stride, j:j + stride * wout:stride] += dcol[:, :, :, i, j]
        return np.ascontiguousarray(dxp[padding:hp - padding, padding:wp - padding].transpose(2, 0, 1))

    def dw(g):
        return (g.reshape(cout, hout * wout) @ col).reshape(weight.data.shape)

    return _make("conv2d", out, (x, dx), (weight, dw), (b, lambda g: g.sum(axis=(1, 2))))


def avg_pool2d(x: Arrayish) -> Tensor:
    """Non-overlapping 2x2 average pooling of a (C, H, W) image; H, W even."""
    x = as_tensor(x)
    c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ShapeError(f"avg_pool2d: {h}x{w} not divisible by 2")
    data = x.data.reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4))
    return _make("avg_pool2d", data,
                 (x, lambda g: np.repeat(np.repeat(g, 2, axis=1), 2, axis=2) / 4))


def upsample2x(x: Arrayish) -> Tensor:
    """Nearest-neighbour 2x upsampling of a (C, H, W) image."""
    x = as_tensor(x)
    c, h, w = x.data.shape
    data = np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2)
    return _make("upsample2x", data, (x, lambda g: g.reshape(c, h, 2, w, 2).sum(axis=(2, 4))))
