"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError, StateError
from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """The moments are one flat vector over the parameters, in order. Each
    step updates the concatenated grads and current `.data` at once, with the
    elementwise ops of a per-parameter update in the same order, and rebinds
    every `p.data` to a view of the result: forward closures holding the old
    data keep it, and the next step reads whatever `.data` is then."""

    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        self.params = list(params)
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) != 1:
            raise ShapeError(f"adam: parameters need one dtype, got {sorted(map(str, dtypes))}")
        self.learning_rate = lr
        self.step_count = 0
        self._bounds = np.cumsum([0] + [p.data.size for p in self.params]).tolist()
        self.first_moment = np.zeros(self._bounds[-1], dtype=dtypes.pop())
        self.second_moment = np.zeros_like(self.first_moment)

    def step(self, loss: Tensor) -> None:
        """Apply one Adam update with the gradients of `loss` that
        `loss.backward(params)` returns; every parameter needs one."""
        grads = loss.backward(self.params)
        if any(g is None for g in grads):
            raise StateError("adam_step: parameter has no gradient")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        g = np.concatenate([grad.reshape(-1) for grad in grads])
        data = np.concatenate([p.data.reshape(-1) for p in self.params])
        # in place, each op as in m = BETA1 m + (1 - BETA1) g,
        # v = BETA2 v + (1 - BETA2) g g, data -= lr m_hat / (sqrt(v_hat) + EPSILON)
        m, v = self.first_moment, self.second_moment
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        g *= g
        g *= 1.0 - BETA2
        v += g
        m_hat = m / bc1
        v_hat = v / bc2
        np.sqrt(v_hat, out=v_hat)
        v_hat += EPSILON
        m_hat *= self.learning_rate
        m_hat /= v_hat
        data -= m_hat.astype(data.dtype, copy=False)
        for p, lo, hi in zip(self.params, self._bounds, self._bounds[1:]):
            p.data = data[lo:hi].reshape(p.data.shape)
