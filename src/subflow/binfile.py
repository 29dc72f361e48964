"""The container of the GSCN, FEAT, PRMS and FMAP files: a 4-byte magic,
little-endian u32 header fields (FEAT adds a u8 tag) and float32 blocks.
Every reader keeps one set of rules and names the file in each error: the
magic and any version match, every block dim is >= 1, the bytes end with the
last block, every value is finite. A size error names the block's fields."""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError


def write(path, parts) -> None:
    """Each part in order: bytes (the magic, FEAT's tag) as they are, a tuple
    as u32 fields, an array as a float32 block."""
    with open(path, "wb") as fh:
        for part in parts:
            if isinstance(part, tuple):
                part = struct.pack(f"<{len(part)}I", *part)
            fh.write(part if isinstance(part, bytes) else np.ascontiguousarray(part, "<f4"))


class Reader:
    """One file, read front to back. `header` holds the `fields` u32 values
    after the magic, less the version when `version` is given."""

    def __init__(self, path, magic: bytes, fields: int, version: int | None = None):
        self.path, self.raw, self.off, self.fields = path, Path(path).read_bytes(), 4, {}
        if self.raw[:4] != magic:
            self.fail(f"bad magic {self.raw[:4]!r} at byte 0, expected {magic!r}")
        self.header = self.ints(fields)
        if version is not None:
            if self.header[0] != version:
                self.fail(f"unsupported version {self.header[0]} at byte 4")
            self.header = self.header[1:]

    def fail(self, message: str):
        raise FormatError(f"{self.path}: {message}")

    def ints(self, count: int, code: str = "I") -> tuple[int, ...]:
        """The next `count` header values: u32, or u8 for `code` "B"."""
        size = count * struct.calcsize("<" + code)
        if self.off + size > len(self.raw):
            self.fail(f"truncated header at byte {len(self.raw)}, expected {self.off + size}")
        self.off += size
        return struct.unpack_from(f"<{count}{code}", self.raw, self.off - size)

    def f32(self, shape: tuple, columns=(), **fields) -> np.ndarray:
        """The next block as a read-only view. `fields` are the header values
        that set `shape` (N=2, D=16); `columns` names the last axis's entries."""
        self.fields, start, n = fields, self.off, math.prod(shape)
        if 0 in shape:
            self.fail(f"zero dim at byte {start} ({self._sizes()})")
        self.off += 4 * n
        if self.off > len(self.raw):
            self.end()
        block = np.frombuffer(self.raw, "<f4", n, start).reshape(shape)
        finite = np.isfinite(block)
        if not finite.all():
            at = int(np.argmin(finite))             # flat index of the first bad value
            where = f" in {columns[at % shape[-1]]}" if columns else ""
            self.fail(f"non-finite value{where} at byte {start + 4 * at} ({self._sizes()})")
        return block

    def _sizes(self) -> str:      # formatted only on an error: reading a block formats nothing
        return ", ".join(f"{k}={v}" for k, v in self.fields.items()) or "header"

    def end(self) -> None:
        """Refuse a file that does not end where the last block does."""
        if self.off != len(self.raw):
            self.fail(f"payload ends at byte {len(self.raw)}, expected {self.off} ({self._sizes()})")
