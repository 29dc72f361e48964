"""Parameter checkpoint file.

Layout: magic "PRMS", u32 version=1, u32 tensor count, then per tensor
u32 rank, u32 dims..., f32 little-endian data.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from ..binfile import Reader, write
from .tensor import Tensor

MAGIC = b"PRMS"
VERSION = 1


def save_params(path, tensors: Sequence[Union[Tensor, np.ndarray]]) -> None:
    arrays = [np.asarray(t.data if isinstance(t, Tensor) else t, dtype="<f4") for t in tensors]
    parts: list = [MAGIC, (VERSION, len(arrays))]
    for a in arrays:
        parts += [(a.ndim, *a.shape), a]
    write(path, parts)


def load_params(path, shapes: Sequence[tuple[int, ...]] | None = None,
                owner: str = "") -> list[np.ndarray]:
    """The arrays of the PRMS file at `path`. Given `shapes`, the ones that
    `owner` (the model, the manifest, the config) gives, they must have them."""
    r = Reader(path, MAGIC, 2, version=VERSION)
    out = []
    for i in range(r.header[0]):
        dims = r.ints(*r.ints(1))      # the rank, then that many dims
        out.append(r.f32(dims, tensor=i, dims=dims).astype(np.float32))
    r.end()
    got = [a.shape for a in out]
    if shapes is not None and got != list(shapes):
        r.fail(f"tensor shapes {got} do not fit the {owner}'s {list(shapes)}")
    return out
