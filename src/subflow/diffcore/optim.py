"""Adam optimizer with bias correction."""

from __future__ import annotations

import numpy as np

from ..errors import StateError
from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    def __init__(self, params: list[Tensor], lr: float = 1e-3):
        self.params = list(params)
        self.learning_rate = lr
        self.step_count = 0
        self.first_moment = [np.zeros_like(p.data) for p in self.params]
        self.second_moment = [np.zeros_like(p.data) for p in self.params]

    def step(self, loss: Tensor) -> None:
        """Backprop `loss` into the parameters, apply one Adam update and
        clear the grads it applied."""
        loss.backward(self.params)
        for p in self.params:
            if p.grad is None:
                raise StateError("adam_step: parameter has no gradient")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        m, v = self.first_moment, self.second_moment
        for i, p in enumerate(self.params):
            g = p.grad
            m[i] = BETA1 * m[i] + (1.0 - BETA1) * g
            v[i] = BETA2 * v[i] + (1.0 - BETA2) * (g * g)
            m_hat = m[i] / bc1
            v_hat = v[i] / bc2
            # rebind rather than mutate: forward closures may hold views of p.data
            p.data = p.data - (self.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)).astype(p.data.dtype)
            p.grad = None
