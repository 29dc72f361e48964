"""Finite-difference gradient oracle.

Checks run with parameters promoted to float64 so the central-difference
quotient is meaningful at h=1e-3; production training stays float32.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from subflow.diffcore import tensor as T
from subflow.diffcore.tensor import Tensor


def finite_diff_max_rel_error(params: Sequence[Tensor],
                              loss_fn: Callable[[], Tensor],
                              h: float) -> float:
    """Max over parameter entries of |analytic - numeric| / (|numeric| + 1e-8).

    `loss_fn` must rebuild the scalar loss from the live parameter tensors on
    every call; parameter data is perturbed in place between evaluations.
    """
    if h <= 0:
        raise ValueError(f"finite difference step must be positive, got {h}")
    params = list(params)
    saved = [p.data for p in params]
    for p in params:
        p.data = p.data.astype(np.float64)
    try:
        analytic = loss_fn().backward(params)
        worst = 0.0
        for p, ana in zip(params, analytic):
            flat = p.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_fn().item()
                flat[i] = orig - h
                dn = loss_fn().item()
                flat[i] = orig
                numeric = (up - dn) / (2.0 * h)
                rel = abs(ana.reshape(-1)[i] - numeric) / (abs(numeric) + 1e-8)
                worst = max(worst, rel)
        return worst
    finally:
        for p, s in zip(params, saved):
            p.data = s


def finite_diff_check(net, x, h: float) -> float:
    """Gradient check of sum(net(x)) against central differences."""
    x_arr = np.asarray(x, dtype=np.float64)
    return finite_diff_max_rel_error(net.parameters(), lambda: T.tsum(net(Tensor(x_arr))), h)
