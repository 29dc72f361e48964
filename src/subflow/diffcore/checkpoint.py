"""Parameter checkpoint file.

Layout: magic "PRMS", u32 version=1, u32 tensor count, then per tensor
u32 rank, u32 dims..., f32 little-endian data.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from ..errors import FormatError
from .tensor import Tensor

MAGIC = b"PRMS"
VERSION = 1


def save_params(path, tensors: Sequence[Union[Tensor, np.ndarray]]) -> None:
    arrays = [t.data if isinstance(t, Tensor) else np.asarray(t) for t in tensors]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(arrays)))
        for arr in arrays:
            a = np.asarray(arr, dtype="<f4")
            fh.write(struct.pack("<I", a.ndim))
            fh.write(struct.pack(f"<{a.ndim}I", *a.shape))
            fh.write(np.ascontiguousarray(a).tobytes())


def load_params(path) -> list[np.ndarray]:
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}, expected {MAGIC!r}")
    if len(raw) < 12:
        raise FormatError(f"{path}: truncated header at byte {len(raw)}")
    off = 4
    version, count = struct.unpack_from("<II", raw, off)
    off += 8
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    out = []
    for i in range(count):
        if off + 4 > len(raw):
            raise FormatError(f"{path}: truncated at byte {off} (tensor {i} rank)")
        (rank,) = struct.unpack_from("<I", raw, off)
        off += 4
        if off + 4 * rank > len(raw):
            raise FormatError(f"{path}: truncated at byte {off} (tensor {i} dims)")
        dims = struct.unpack_from(f"<{rank}I", raw, off)
        if 0 in dims:
            raise FormatError(f"{path}: tensor {i} has a zero dim in {dims} (byte {off})")
        off += 4 * rank
        n = math.prod(dims)
        nbytes = 4 * n
        if off + nbytes > len(raw):
            raise FormatError(f"{path}: truncated at byte {off} (tensor {i} data)")
        data = np.frombuffer(raw, dtype="<f4", count=n, offset=off).reshape(dims)
        if not np.all(np.isfinite(data)):
            raise FormatError(f"{path}: tensor {i} holds non-finite values (byte {off})")
        off += nbytes
        out.append(data.astype(np.float32))
    if off != len(raw):
        raise FormatError(f"{path}: {len(raw) - off} bytes follow the last tensor at byte {off}")
    return out


def check_shapes(arrays: Sequence[np.ndarray], shapes: Sequence[tuple[int, ...]], path,
                 owner: str) -> None:
    """Raise `FormatError` naming `path` unless the arrays loaded from it have
    the `shapes` that `owner` (the model, the manifest, the config) gives."""
    got = [a.shape for a in arrays]
    if got != list(shapes):
        raise FormatError(f"{path}: tensor shapes {got} do not fit the {owner}'s {list(shapes)}")
