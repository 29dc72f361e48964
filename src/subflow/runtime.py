"""The process's numeric runtime: the BLAS thread count and the allocator.

BLAS threads decide the bits: on two threads OpenBLAS sums some float32
GEMMs in another order than on one, and a distilled decoder moves by an ulp.
`pin_blas_threads` sets the OpenBLAS bundled with numpy to one thread,
whatever `OPENBLAS_NUM_THREADS` said when numpy loaded it (numpy is often
imported before this package, so setting the variable here would be too
late). The package calls it on import. Where no setter is found, nothing is
set.

The allocator decides the speed of a training step. Each step builds large
buffers (a tape trainer's step, its graph) and every trainer frees them when
the step returns, before the next step's forward; under glibc's defaults those
buffers went back to the OS and were faulted in again every step, and a
training loop ran 1.3x as long. `set_allocator_policy` keeps them on the
heap: no mmap below `MMAP_THRESHOLD` and no trim below `TRIM_THRESHOLD`.
glibc grows its own mmap threshold to 32 MiB at most, but takes a set one
above that (2.36 does), so a 48 MiB buffer stays on the heap too; the policy
says whether glibc took both values. It changes the whole process's
`malloc`, so only the CLI applies it; library callers keep their own
allocator and get the same bits.
"""

from __future__ import annotations

import ctypes
import sys
from pathlib import Path

import numpy as np

MMAP_THRESHOLD = 64 << 20
TRIM_THRESHOLD = 256 << 20
_M_TRIM_THRESHOLD = -1      # glibc's mallopt parameter numbers
_M_MMAP_THRESHOLD = -3
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                 "openblas_set_num_threads")


def pin_blas_threads() -> None:
    """One thread for the OpenBLAS under numpy's `numpy.libs`, if it has a setter."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in _BLAS_SETTERS:
            setter = getattr(handle, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return


def set_allocator_policy() -> bool:
    """Set glibc's mmap and trim thresholds; True if glibc took both. Without
    glibc's `mallopt` nothing is set."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    took_mmap = mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    took_trim = mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    return took_mmap and took_trim
