"""The container of the GSCN, FEAT, PRMS, FMAP and TWTS files: a 4-byte
magic, little-endian u32 header fields (FEAT adds a u8 tag) and blocks of
float32 values, of u32 indices or of packed bits. Every reader keeps one set
of rules and names the file in each error: the magic and any version match,
every block dim is >= 1, the bytes end with the last block, every value is
finite, every index is below its bound, and a bit mask sets as many bits as
its values need. A size error names the block's fields. A reader takes the
file one block at a time, so it never holds a whole file."""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import FormatError


def write(path, parts) -> None:
    """`put` the parts into a new file at `path`."""
    with open(path, "wb") as fh:
        put(fh, parts)


def put(fh, parts) -> None:
    """Each part in order to the open file `fh`: bytes (the magic, FEAT's
    tag, a packed bit mask) as they are, a tuple as u32 fields, an integer
    array as a u32 block, any other array as a float32 block."""
    for part in parts:
        if isinstance(part, tuple):
            part = struct.pack(f"<{len(part)}I", *part)
        elif not isinstance(part, bytes):
            part = np.asarray(part)
            part = np.ascontiguousarray(part, "<u4" if part.dtype.kind in "iu" else "<f4")
        fh.write(part)


class Reader:
    """One file, read front to back. `header` holds the `fields` u32 values
    after the magic, less the version when `version` is given. The file is
    closed by `end`, by `fail` and on leaving a `with` block."""

    def __init__(self, path, magic: bytes, fields: int, version: int | None = None):
        self.path, self.fh, self.off, self.fields = path, open(path, "rb"), 0, {}
        self.size = os.fstat(self.fh.fileno()).st_size
        head = self._take(4)
        if head != magic:
            self.fail(f"bad magic {head!r} at byte 0, expected {magic!r}")
        self.header = self.ints(fields)
        if version is not None:
            if self.header[0] != version:
                self.fail(f"unsupported version {self.header[0]} at byte 4")
            self.header = self.header[1:]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def fail(self, message: str):
        self.fh.close()
        raise FormatError(f"{self.path}: {message}")

    def _take(self, size: int) -> bytes:
        self.off += size
        return self.fh.read(size)

    def ints(self, count: int, code: str = "I") -> tuple[int, ...]:
        """The next `count` header values: u32, or u8 for `code` "B"."""
        size = count * struct.calcsize("<" + code)
        if self.off + size > self.size:
            self.fail(f"truncated header at byte {self.size}, expected {self.off + size}")
        return struct.unpack(f"<{count}{code}", self._take(size))

    def _block(self, shape: tuple, dtype: str, fields: dict) -> np.ndarray:
        self.fields, n = fields, math.prod(shape)
        if 0 in shape:
            self.fail(f"zero dim at byte {self.off} ({self._sizes()})")
        size = n * np.dtype(dtype).itemsize
        if self.off + size > self.size:
            self.off += size
            self.end()
        return np.frombuffer(self._take(size), dtype, n).reshape(shape)

    def f32(self, shape: tuple, columns=(), **fields) -> np.ndarray:
        """The next block as a read-only array. `fields` are the header values
        that set `shape` (N=2, D=16); `columns` names the last axis's entries."""
        start = self.off
        block = self._block(shape, "<f4", fields)
        finite = np.isfinite(block)
        if not finite.all():
            at = int(np.argmin(finite))             # flat index of the first bad value
            where = f" in {columns[at % shape[-1]]}" if columns else ""
            self.fail(f"non-finite value{where} at byte {start + 4 * at} ({self._sizes()})")
        return block

    def u32(self, count: int, bound: int, **fields) -> np.ndarray:
        """The next `count` u32 indices, each below `bound`."""
        start = self.off
        block = self._block((count,), "<u4", fields)
        if block.max() >= bound:
            at = int(np.argmax(block >= bound))
            self.fail(f"index {block[at]} at byte {start + 4 * at} is not below {bound} "
                      f"({self._sizes()})")
        return block

    def bits(self, count: int, ones: int, **fields) -> np.ndarray:
        """The next `count` bits, packed 8 to a byte from the high bit, as a
        bool array; `ones` of them must be set."""
        start = self.off
        mask = np.unpackbits(self._block((-(-count // 8),), "u1", fields), count=count)
        mask = mask.view(bool)
        if (set_bits := int(np.count_nonzero(mask))) != ones:
            self.fail(f"bit mask at byte {start} sets {set_bits} bits, expected {ones} "
                      f"({self._sizes()})")
        return mask

    def _sizes(self) -> str:      # formatted only on an error: reading a block formats nothing
        return ", ".join(f"{k}={v}" for k, v in self.fields.items()) or "header"

    def end(self) -> None:
        """Refuse a file that does not end where the last block does."""
        if self.off != self.size:
            self.fail(f"payload ends at byte {self.size}, expected {self.off} ({self._sizes()})")
        self.fh.close()
