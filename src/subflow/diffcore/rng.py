"""Named, counter-based random streams.

Every random draw in the package goes through `named_stream(seed, name)`:
a Philox counter-based generator keyed by the 64-bit seed and a stable
hash of the stream name. Same (seed, name) gives the same stream on any
platform, independent of draw order elsewhere in the program.
"""

from __future__ import annotations

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def name_hash(name: str) -> int:
    """FNV-1a hash of a stream name, reduced to 64 bits."""
    h = _FNV_OFFSET
    for byte in name.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def named_stream(seed: int, name: str) -> np.random.Generator:
    """Counter-based generator keyed by (seed, name)."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, name_hash(name)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def glorot_uniform(seed: int, name: str, fan_in: int, fan_out: int,
                   shape: tuple[int, ...]) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)) from the named stream."""
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    g = named_stream(seed, name)
    return g.uniform(-bound, bound, size=shape).astype(np.float32)
